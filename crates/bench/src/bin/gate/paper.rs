//! `gate paper`: every number EXPERIMENTS.md shows as measured or
//! predicted, at the paper's n = 100,000 — Figures 8–10 and the
//! group-size sweep to 1M, Sections V-A to V-D, the §III-E batching
//! bytes, the churn schedules and the two ablations. A row is one line
//! of a figure (a cell per x value) or one line of a table. Every cell
//! is a count or a virtual-time latency, so every column is `Exact`
//! and two repetitions prove the row deterministic.

use mykil_analysis::{bandwidth, cpu, latency, Params};
use mykil_baselines::KeyManager;
use mykil_bench::gate::{Columns, Gate, Rep, Row, Rule::Exact, Value};
use mykil_bench::workload::{churn_bytes, ChurnSchedule};
use mykil_bench::*;
use mykil_net::Duration;
use mykil_tree::MemberId;

const N: u64 = PAPER_GROUP;
/// Areas wherever a row does not sweep them: 5,000 members each.
const AREAS: u64 = 20;
/// Binary trees, the shape behind the paper's own arithmetic.
const ARITY: usize = 2;

/// A cell per entry of [`AREA_COUNTS`].
const BY_AREAS: Columns = &[
    ("1", Exact),
    ("2", Exact),
    ("4", Exact),
    ("6", Exact),
    ("8", Exact),
    ("10", Exact),
    ("12", Exact),
    ("16", Exact),
    ("20", Exact),
];
/// A cell per entry of [`SWEEP_GROUP_SIZES`].
const BY_MEMBERS: Columns = &[
    ("10000", Exact),
    ("50000", Exact),
    ("100000", Exact),
    ("250000", Exact),
    ("500000", Exact),
    ("1000000", Exact),
];
const STORAGE: Columns = &[("member_bytes", Exact), ("controller_bytes", Exact)];
/// Members installing exactly k new keys on one leave, then the
/// members affected at all and the keys installed in total.
const UPDATES: Columns = &[
    ("keys_1", Exact),
    ("keys_2", Exact),
    ("keys_3", Exact),
    ("keys_4", Exact),
    ("keys_5", Exact),
    ("affected", Exact),
    ("updates", Exact),
];
const LATENCY: Columns = &[
    ("join_us", Exact),
    ("rejoin_us", Exact),
    ("rejoin_fast_us", Exact),
];
const CHURN: Columns = &[
    ("iolus", Exact),
    ("lkh", Exact),
    ("mykil", Exact),
    ("mykil_unaggregated", Exact),
];
const VACANT: Columns = &[
    ("join_unicast_bytes", Exact),
    ("leave_multicast_bytes", Exact),
    ("nodes", Exact),
];

const ROWS: &[Row] = &[
    ("fig8_iolus", BY_AREAS, |_| exact(fig8_iolus(N))),
    ("fig8_lkh", BY_AREAS, |_| exact([fig8_lkh(N, ARITY); 9])),
    ("fig8_mykil", BY_AREAS, |_| exact(fig8_mykil(N, ARITY))),
    ("fig8_iolus_analytic", BY_AREAS, |_| {
        analytic(|r| r.iolus)
    }),
    ("fig8_lkh_analytic", BY_AREAS, |_| analytic(|r| r.lkh)),
    ("fig8_mykil_analytic", BY_AREAS, |_| {
        analytic(|r| r.mykil)
    }),
    ("sweep_areas", BY_MEMBERS, |_| sweep(|r| r.areas)),
    ("sweep_iolus", BY_MEMBERS, |_| sweep(|r| r.iolus)),
    ("sweep_lkh", BY_MEMBERS, |_| sweep(|r| r.lkh)),
    ("sweep_mykil", BY_MEMBERS, |_| sweep(|r| r.mykil)),
    ("fig10_lkh_sequential", BY_AREAS, |_| {
        exact([fig10_lkh_sequential(N, 10, ARITY); 9])
    }),
    ("fig10_mykil_best", BY_AREAS, |_| {
        exact(fig10_mykil(N, 10, ARITY, clustered_members))
    }),
    ("fig10_mykil_worst", BY_AREAS, |_| {
        exact(fig10_mykil(N, 10, ARITY, spread_members))
    }),
    ("va_iolus", STORAGE, |_| storage(&iolus(N / AREAS))),
    ("va_lkh", STORAGE, |_| storage(&lkh(N, ARITY))),
    ("va_mykil", STORAGE, |_| storage(&mykil(N, AREAS, ARITY))),
    ("vb_iolus", UPDATES, |name| updates(name)),
    ("vb_lkh", UPDATES, |name| updates(name)),
    ("vb_mykil", UPDATES, |name| updates(name)),
    (
        "vc_join_unicast",
        &[("lkh", Exact), ("mykil", Exact)],
        |_| {
            let p = Params {
                members: N,
                ..Params::paper()
            };
            let lkh = bandwidth::lkh_join_unicast_bytes(&p);
            exact([lkh, bandwidth::mykil_join_unicast_bytes(&p)])
        },
    ),
    (
        "batching_key_update",
        &[("batched", Exact), ("immediate", Exact)],
        |_| {
            let (batched, immediate) = batching_savings(7, 5);
            exact([batched, immediate])
        },
    ),
    (
        "vd_measured",
        &[
            ("join_us", Exact),
            ("join_blinding_us", Exact),
            ("rejoin_us", Exact),
            ("rejoin_fast_us", Exact),
        ],
        |_| {
            let l = vd_latency();
            exact([l.join, l.join_blinding, l.rejoin, l.rejoin_fast].map(Duration::as_micros))
        },
    ),
    ("vd_predicted", LATENCY, |_| {
        exact(latency::paper_predictions().map(|(_, secs)| (secs * 1e6).round() as u64))
    }),
    ("churn_steady", CHURN, |_| {
        churn(ChurnSchedule::steady(1, N, 20, 5, 5))
    }),
    ("churn_flash_crowd", CHURN, |_| {
        churn(ChurnSchedule::flash_crowd(N, 500, 0))
    }),
    ("churn_end_of_month", CHURN, |_| {
        churn(ChurnSchedule::end_of_month(2, N, 200))
    }),
    (
        "ablation_arity",
        &[("2", Exact), ("4", Exact), ("8", Exact)],
        |_| {
            exact([2, 4, 8].map(|arity| leave_bytes(&mut mykil(N, AREAS, arity), MemberId(N / 2))))
        },
    ),
    ("ablation_keep_vacant", VACANT, |_| vacant(false)),
    ("ablation_prune", VACANT, |_| vacant(true)),
];

pub const PAPER: Gate = Gate {
    name: "paper",
    baseline: "BENCH_paper.json",
    noun: "rows",
    rows: ROWS,
    ratios: &[],
};

fn exact(values: impl IntoIterator<Item = u64>) -> Rep {
    let values = values.into_iter().map(Value::Int).collect();
    Rep { secs: 0.0, values }
}

fn analytic(pick: fn(&LeaveBandwidthRow) -> u64) -> Rep {
    exact(fig8_analytic(N).iter().map(pick))
}

fn sweep(pick: fn(&GroupSizeRow) -> u64) -> Rep {
    exact(fig8_group_size_sweep().iter().map(pick))
}

fn storage(group: &dyn KeyManager) -> Rep {
    exact([
        group.member_storage_bytes(),
        group.controller_storage_bytes(),
    ])
}

/// Section V-B for the protocol the row `vb_<protocol>` names.
fn updates(row: &str) -> Rep {
    let protocol = row.trim_start_matches("vb_");
    let mut table = cpu_table(N, AREAS).into_iter();
    let (_, dist) = table.find(|t| t.0 == protocol).expect(row);
    let members = |k| {
        dist.iter()
            .filter(|b| b.keys_updated == k)
            .map(|b| b.members)
            .sum()
    };
    let totals = [cpu::members_affected(&dist), cpu::total_updates(&dist)];
    exact((1..=5).map(members).chain(totals))
}

fn churn(schedule: ChurnSchedule) -> Rep {
    exact(churn_bytes(N, &schedule))
}

fn vacant(prune: bool) -> Rep {
    let arm = vacant_leaf_ablation(N / AREAS, 200, prune);
    exact([
        arm.join_unicast_bytes,
        arm.leave_multicast_bytes,
        arm.final_nodes,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_columns_name_their_x_values() {
        let names = |columns: Columns| columns.iter().map(|c| c.0.to_string()).collect::<Vec<_>>();
        let xs = |values: &[u64]| values.iter().map(u64::to_string).collect::<Vec<_>>();
        assert_eq!(names(BY_AREAS), xs(&AREA_COUNTS));
        assert_eq!(names(BY_MEMBERS), xs(&SWEEP_GROUP_SIZES));
    }
}
