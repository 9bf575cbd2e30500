//! Key-update bandwidth (Section V-C, Figures 8–10 of the paper).
//!
//! All sizes are bytes of encrypted key material in the rekey messages
//! triggered by one membership event — the quantity on the y-axis of
//! Figures 8, 9 and 10.

use crate::Params;

/// Iolus, leave event: the subgroup controller re-encrypts the new
/// subgroup key under each remaining member's pairwise key —
/// `area_size` separate 16-byte payloads (80,000 bytes for a 5,000
/// member area, the paper's number).
pub fn iolus_leave_bytes(p: &Params) -> u64 {
    p.area_size() * p.key_len
}

/// Tree-based leave rekey: each key on the leaf-to-root path is
/// re-encrypted under each of its children's keys —
/// `arity · height · key_len` (the paper's `2·17·16 = 544` for LKH and
/// `2·12·16 = 384` for a Mykil area, binary trees).
fn tree_leave_bytes(p: &Params, leaves: u64) -> u64 {
    p.arity * p.tree_height(leaves) * p.key_len
}

/// LKH, leave event: one global tree over all members.
pub fn lkh_leave_bytes(p: &Params) -> u64 {
    tree_leave_bytes(p, p.members)
}

/// Mykil, leave event: a tree over one area only.
pub fn mykil_leave_bytes(p: &Params) -> u64 {
    tree_leave_bytes(p, p.area_size())
}

/// Join event, unicast key path to the newcomer (LKH and Mykil only;
/// the paper's `16·17 = 272 B` for LKH, `16·12` for a Mykil area).
pub fn tree_join_unicast_bytes(p: &Params, leaves: u64) -> u64 {
    p.tree_height(leaves) * p.key_len
}

/// LKH join unicast.
pub fn lkh_join_unicast_bytes(p: &Params) -> u64 {
    tree_join_unicast_bytes(p, p.members)
}

/// Mykil join unicast.
pub fn mykil_join_unicast_bytes(p: &Params) -> u64 {
    tree_join_unicast_bytes(p, p.area_size())
}

/// Aggregated leave of `k` members, *best case*: all departed leaves
/// share parents as densely as possible, so the union of paths is one
/// subtree path — approximately the cost of a single leave plus the
/// extra sibling re-encryptions near the bottom.
pub fn mykil_batch_leave_bytes_best(p: &Params, k: u64) -> u64 {
    if k == 0 {
        return 0;
    }
    let h = p.tree_height(p.area_size());
    // The k leaves fill ceil(log_arity(k)) bottom levels entirely; the
    // remaining path to the root is refreshed once.
    let bottom = p.tree_height(k.max(1));
    let shared = h.saturating_sub(bottom);
    // Bottom levels: every node above a departed leaf changes; counting
    // arity encryptions per changed node minus the vacated ones.
    let mut bottom_nodes = 0u64;
    let mut level = k;
    for _ in 0..bottom {
        level = level.div_ceil(p.arity);
        bottom_nodes += level;
    }
    (bottom_nodes + shared) * p.arity * p.key_len
}

/// Aggregated leave of `k` members, *worst case*: departed leaves are
/// spread so each path is disjoint until near the root — the union is
/// `k` nearly full paths that only merge in the top `log_arity(k)`
/// levels.
pub fn mykil_batch_leave_bytes_worst(p: &Params, k: u64) -> u64 {
    if k == 0 {
        return 0;
    }
    let h = p.tree_height(p.area_size());
    let merge = p.tree_height(k.max(1));
    let disjoint = h.saturating_sub(merge);
    // k disjoint path segments + a merged top (a full `merge`-level
    // subtree worth of nodes).
    let mut top_nodes = 0u64;
    let mut level = k;
    for _ in 0..merge {
        level = level.div_ceil(p.arity);
        top_nodes += level;
    }
    (k * disjoint + top_nodes) * p.arity * p.key_len
}

/// Unaggregated cost of `k` consecutive leaves (for the Figure 10
/// comparison): `k` independent leave rekeys.
pub fn mykil_sequential_leave_bytes(p: &Params, k: u64) -> u64 {
    k * mykil_leave_bytes(p)
}

/// One row of Figure 8/9: `(areas, iolus, lkh, mykil)` bytes for a
/// single leave event.
pub fn leave_bandwidth_row(p: &Params, areas: u64) -> (u64, u64, u64, u64) {
    let p = p.with_areas(areas);
    (
        areas,
        iolus_leave_bytes(&p),
        lkh_leave_bytes(&p),
        mykil_leave_bytes(&p),
    )
}

/// The x-axis of Figures 8–10.
pub const FIGURE_AREA_COUNTS: [u64; 9] = [1, 2, 4, 6, 8, 10, 12, 16, 20];

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::paper()
    }

    #[test]
    fn paper_headline_numbers() {
        // Section V-C: 80,000 B Iolus (5,000-member area), 544 B LKH,
        // 384 B Mykil.
        assert_eq!(iolus_leave_bytes(&p()), 80_000);
        assert_eq!(lkh_leave_bytes(&p()), 2 * 17 * 16); // 544
        assert_eq!(mykil_leave_bytes(&p()), 2 * 13 * 16); // 416 (paper rounds to 12 levels = 384)
    }

    #[test]
    fn figure8_shape() {
        // Iolus explodes at few areas; LKH constant; Mykil declines.
        let rows: Vec<_> = FIGURE_AREA_COUNTS
            .iter()
            .map(|&a| leave_bandwidth_row(&p(), a))
            .collect();
        // At 1 area Iolus costs 1.6 MB (the paper's y-axis peak).
        assert_eq!(rows[0].1, 1_600_000);
        // LKH is flat across the sweep.
        assert!(rows.iter().all(|r| r.2 == rows[0].2));
        // Mykil is monotonically non-increasing and always <= LKH.
        for w in rows.windows(2) {
            assert!(w[1].3 <= w[0].3);
        }
        assert!(rows.iter().all(|r| r.3 <= r.2));
        // Iolus monotonically decreases but stays far above Mykil at 20.
        assert!(rows.last().unwrap().1 > 100 * rows.last().unwrap().3);
    }

    #[test]
    fn figure9_zoom_values() {
        // Mykil equals LKH at one area and drops below as areas grow.
        let one = leave_bandwidth_row(&p(), 1);
        assert_eq!(one.2, one.3);
        let twenty = leave_bandwidth_row(&p(), 20);
        assert!(twenty.3 < twenty.2);
        // Both stay in the 400-560 B window of Figure 9.
        for &a in &FIGURE_AREA_COUNTS {
            let r = leave_bandwidth_row(&p(), a);
            assert!((380..=560).contains(&r.2), "lkh {}", r.2);
            assert!((380..=560).contains(&r.3), "mykil {}", r.3);
        }
    }

    #[test]
    fn join_unicast_paper_numbers() {
        // Paper: 16*17 = 272 B for LKH; 16*12/13 for Mykil.
        assert_eq!(lkh_join_unicast_bytes(&p()), 272);
        assert_eq!(mykil_join_unicast_bytes(&p()), 208);
    }

    #[test]
    fn aggregation_saves_figure10() {
        // Ten consecutive leaves: aggregated (either placement) must
        // save substantially over ten sequential rekeys.
        let seq = mykil_sequential_leave_bytes(&p(), 10);
        let best = mykil_batch_leave_bytes_best(&p(), 10);
        let worst = mykil_batch_leave_bytes_worst(&p(), 10);
        assert!(best <= worst, "best {best} worst {worst}");
        assert!(worst < seq, "worst {worst} seq {seq}");
        // Paper claims 40-60% savings for typical batches; the best-case
        // placement (clustered departures, e.g. end-of-month
        // cancellations) saves well over half, the worst case still
        // saves something.
        assert!((best as f64) < 0.5 * seq as f64, "best {best} seq {seq}");
        assert!((worst as f64) < 0.85 * seq as f64, "worst {worst} seq {seq}");
    }

    #[test]
    fn batch_degenerates_to_single_leave() {
        let single = mykil_leave_bytes(&p());
        let b1 = mykil_batch_leave_bytes_best(&p(), 1);
        let w1 = mykil_batch_leave_bytes_worst(&p(), 1);
        // k=1 aggregates to approximately one leave (within one level).
        assert!(b1.abs_diff(single) <= p().arity * p().key_len);
        assert!(w1.abs_diff(single) <= p().arity * p().key_len);
        assert_eq!(mykil_batch_leave_bytes_best(&p(), 0), 0);
    }

    #[test]
    fn savings_grow_with_batch_size() {
        let p = p();
        let mut prev_ratio = 1.0f64;
        for k in [2u64, 5, 10, 20] {
            let seq = mykil_sequential_leave_bytes(&p, k) as f64;
            let agg = mykil_batch_leave_bytes_worst(&p, k) as f64;
            let ratio = agg / seq;
            assert!(ratio < prev_ratio, "k={k} ratio={ratio}");
            prev_ratio = ratio;
        }
    }
}
