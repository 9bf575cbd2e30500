//! Closed-form cost models from Section V of the Mykil paper.
//!
//! The paper's evaluation mixes prototype measurements with back-of-the-
//! envelope arithmetic over three protocols: **Iolus** (flat subgroups,
//! pairwise keys), **LKH** (one global key tree), and **Mykil** (areas
//! with a key tree per area). This crate reproduces that arithmetic:
//!
//! - [`storage`] — bytes of key material per member and per controller
//!   (Section V-A)
//! - [`cpu`] — how many members re-derive how many keys on a leave event
//!   (Section V-B)
//! - [`bandwidth`] — key-update message sizes for join and leave events,
//!   with and without leave aggregation (Section V-C, Figures 8–10)
//!
//! Each model takes a [`Params`] describing the deployment. The
//! simulation crates measure the same quantities from live trees; the
//! workspace integration tests assert the two agree.

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod latency;
pub mod cpu;
pub mod storage;

/// Deployment parameters shared by all models.
///
/// Defaults mirror the paper's running example: 100,000 members, 20
/// areas (5,000 members each), 128-bit symmetric keys, 2048-bit RSA,
/// binary key trees (the shape behind the paper's own arithmetic — see
/// `EXPERIMENTS.md` for the arity discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Total group size `n`.
    pub members: u64,
    /// Number of Mykil areas (Iolus subgroups).
    pub areas: u64,
    /// Symmetric key length in bytes.
    pub key_len: u64,
    /// RSA modulus length in bytes (public-key storage).
    pub rsa_len: u64,
    /// Key-tree arity for LKH and Mykil.
    pub arity: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            members: 100_000,
            areas: 20,
            key_len: 16,
            rsa_len: 256,
            arity: 2,
        }
    }
}

impl Params {
    /// The paper's running example (100k members, 20 areas).
    pub fn paper() -> Params {
        Params::default()
    }

    /// Same deployment with a different number of areas (the x-axis of
    /// Figures 8–10).
    pub fn with_areas(self, areas: u64) -> Params {
        Params { areas, ..self }
    }

    /// Members per area, rounded up.
    pub fn area_size(&self) -> u64 {
        self.members.div_ceil(self.areas.max(1))
    }

    /// Key-tree height for a tree with `leaves` leaves:
    /// `ceil(log_arity(leaves))`, minimum 1.
    pub fn tree_height(&self, leaves: u64) -> u64 {
        if leaves <= 1 {
            return 1;
        }
        let mut h = 0u64;
        let mut cap = 1u64;
        while cap < leaves {
            cap = cap.saturating_mul(self.arity);
            h += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = Params::paper();
        assert_eq!(p.members, 100_000);
        assert_eq!(p.area_size(), 5_000);
        assert_eq!(p.with_areas(10).area_size(), 10_000);
    }

    #[test]
    fn tree_height_binary() {
        let p = Params::paper();
        // Paper arithmetic: ~17 levels for 100k, ~13 for 5k (binary).
        assert_eq!(p.tree_height(100_000), 17);
        assert_eq!(p.tree_height(5_000), 13);
        assert_eq!(p.tree_height(1), 1);
        assert_eq!(p.tree_height(2), 1);
        assert_eq!(p.tree_height(3), 2);
    }

    #[test]
    fn tree_height_quad() {
        let p = Params {
            arity: 4,
            ..Params::paper()
        };
        assert_eq!(p.tree_height(100_000), 9);
        assert_eq!(p.tree_height(5_000), 7);
        assert_eq!(p.tree_height(4), 1);
        assert_eq!(p.tree_height(5), 2);
    }

    #[test]
    fn area_size_rounds_up() {
        let p = Params {
            members: 10,
            areas: 3,
            ..Params::paper()
        };
        assert_eq!(p.area_size(), 4);
    }
}
