//! Churn workload generation.
//!
//! The paper motivates Mykil with workloads whose membership changes in
//! characteristic patterns: steady subscriber turnover, flash crowds at
//! a premiere, and correlated cancellations ("members cancelling their
//! cable memberships at the end of a month"). This module generates
//! deterministic schedules of those shapes and replays them against any
//! [`KeyManager`], measuring total rekey traffic — the macro-benchmark
//! complement to the single-event Figures 8–10.

use mykil_baselines::{KeyManager, RekeyTraffic};
use mykil_crypto::drbg::Drbg;
use mykil_tree::MemberId;

/// One membership event in a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A single member joins.
    Join(MemberId),
    /// A batch of members leaves together (aggregatable).
    LeaveBatch(Vec<MemberId>),
}

/// A deterministic churn schedule.
#[derive(Debug, Clone, Default)]
pub struct ChurnSchedule {
    /// Events in replay order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Steady churn: `rounds` rounds of `joins_per_round` joins and
    /// `leaves_per_round` single-member leaves over a standing
    /// population (the pay-per-view steady state).
    pub fn steady(
        seed: u64,
        standing: u64,
        rounds: usize,
        joins_per_round: usize,
        leaves_per_round: usize,
    ) -> ChurnSchedule {
        let mut rng = Drbg::from_seed(seed);
        let mut events = Vec::new();
        let mut next_id = standing;
        let mut present: Vec<MemberId> = (0..standing).map(MemberId).collect();
        for _ in 0..rounds {
            for _ in 0..joins_per_round {
                let m = MemberId(next_id);
                next_id += 1;
                present.push(m);
                events.push(ChurnEvent::Join(m));
            }
            for _ in 0..leaves_per_round {
                if present.is_empty() {
                    break;
                }
                let idx = rng.gen_range(present.len() as u64) as usize;
                let m = present.swap_remove(idx);
                events.push(ChurnEvent::LeaveBatch(vec![m]));
            }
        }
        ChurnSchedule { events }
    }

    /// Flash crowd: `burst` joins arrive at once (the premiere), then
    /// `stragglers` trickle in one by one.
    pub fn flash_crowd(first_id: u64, burst: usize, stragglers: usize) -> ChurnSchedule {
        let events: Vec<ChurnEvent> = (0..burst + stragglers)
            .map(|i| ChurnEvent::Join(MemberId(first_id + i as u64)))
            .collect();
        ChurnSchedule { events }
    }

    /// End-of-month cancellations: the standing population stays, then
    /// `cancellations` members leave as one correlated batch —
    /// the paper's canonical batching win.
    pub fn end_of_month(seed: u64, standing: u64, cancellations: usize) -> ChurnSchedule {
        let mut rng = Drbg::from_seed(seed);
        let mut pool: Vec<MemberId> = (0..standing).map(MemberId).collect();
        let mut batch = Vec::with_capacity(cancellations);
        for _ in 0..cancellations.min(standing as usize) {
            let idx = rng.gen_range(pool.len() as u64) as usize;
            batch.push(pool.swap_remove(idx));
        }
        batch.sort_unstable();
        ChurnSchedule {
            events: vec![ChurnEvent::LeaveBatch(batch)],
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replays a schedule against a (pre-populated) key manager, summing
/// the rekey traffic.
pub fn replay<M: KeyManager + ?Sized>(
    manager: &mut M,
    schedule: &ChurnSchedule,
    rng: &mut Drbg,
) -> RekeyTraffic {
    let mut total = RekeyTraffic::default();
    for event in &schedule.events {
        match event {
            ChurnEvent::Join(m) => total += manager.join(*m, rng),
            ChurnEvent::LeaveBatch(ms) => total += manager.batch_leave(ms, rng),
        }
    }
    total
}

/// Replays a schedule treating every batch as individual leaves (the
/// no-aggregation baseline).
pub fn replay_unaggregated<M: KeyManager + ?Sized>(
    manager: &mut M,
    schedule: &ChurnSchedule,
    rng: &mut Drbg,
) -> RekeyTraffic {
    let mut total = RekeyTraffic::default();
    for event in &schedule.events {
        match event {
            ChurnEvent::Join(m) => total += manager.join(*m, rng),
            ChurnEvent::LeaveBatch(ms) => {
                for m in ms {
                    total += manager.leave(*m, rng);
                }
            }
        }
    }
    total
}

/// Key bytes `schedule` costs over a standing population of members
/// `0..standing`, replayed against one Iolus subgroup of a twentieth of
/// them, one LKH tree, Mykil in 20 areas, and Mykil with every batch
/// split into single leaves — binary trees throughout.
pub fn churn_bytes(standing: u64, schedule: &ChurnSchedule) -> [u64; 4] {
    let mut rng = Drbg::from_seed(0xC0FFEE);
    let mut mykil = crate::mykil(standing, 20, 2);
    let unaggregated = replay_unaggregated(&mut mykil.clone(), schedule, &mut rng);
    [
        replay(&mut crate::iolus(standing / 20), schedule, &mut rng),
        replay(&mut crate::lkh(standing, 2), schedule, &mut rng),
        replay(&mut mykil, schedule, &mut rng),
        unaggregated,
    ]
    .map(|traffic| traffic.total_key_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_baselines::{FlatLkh, IolusGroup, MykilModel};
    use mykil_tree::TreeConfig;

    #[test]
    fn steady_schedule_shape() {
        let s = ChurnSchedule::steady(1, 100, 5, 3, 2);
        assert_eq!(s.len(), 5 * (3 + 2));
        let joins = s
            .events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count();
        assert_eq!(joins, 15);
        // Deterministic.
        assert_eq!(s.events, ChurnSchedule::steady(1, 100, 5, 3, 2).events);
    }

    #[test]
    fn end_of_month_is_one_batch() {
        let s = ChurnSchedule::end_of_month(2, 1000, 50);
        assert_eq!(s.len(), 1);
        match &s.events[0] {
            ChurnEvent::LeaveBatch(ms) => {
                assert_eq!(ms.len(), 50);
                let mut sorted = ms.clone();
                sorted.dedup();
                assert_eq!(sorted.len(), 50, "no duplicate cancellations");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn aggregation_wins_on_end_of_month() {
        let mut rng = Drbg::from_seed(3);
        let schedule = ChurnSchedule::end_of_month(9, 2000, 40);

        let mut agg = MykilModel::new(8, TreeConfig::binary(), &mut rng);
        mykil_baselines::populate(&mut agg, 2000, &mut rng);
        let mut unagg = agg.clone();

        let with = replay(&mut agg, &schedule, &mut rng).total_key_bytes();
        let without = replay_unaggregated(&mut unagg, &schedule, &mut rng).total_key_bytes();
        assert!(with < without, "with={with} without={without}");
        // Random placement across 8 areas still saves a solid fraction;
        // the paper's 40-60% applies to clustered departures (covered by
        // the Figure 10 best-case measurement).
        assert!(
            (with as f64) < 0.8 * without as f64,
            "with={with} without={without}"
        );
    }

    #[test]
    fn mykil_beats_baselines_on_steady_churn() {
        let mut rng = Drbg::from_seed(4);
        let schedule = ChurnSchedule::steady(5, 2000, 10, 4, 4);

        let mut iolus = IolusGroup::new(16);
        mykil_baselines::populate(&mut iolus, 2000, &mut rng);
        let mut lkh = FlatLkh::new(TreeConfig::binary(), &mut rng);
        mykil_baselines::populate(&mut lkh, 2000, &mut rng);
        let mut mykil = MykilModel::new(8, TreeConfig::binary(), &mut rng);
        mykil_baselines::populate(&mut mykil, 2000, &mut rng);

        let ti = replay(&mut iolus, &schedule, &mut rng).total_key_bytes();
        let tl = replay(&mut lkh, &schedule, &mut rng).total_key_bytes();
        let tm = replay(&mut mykil, &schedule, &mut rng).total_key_bytes();
        assert!(tm < ti, "mykil {tm} vs iolus {ti}");
        assert!(tm <= tl, "mykil {tm} vs lkh {tl}");
    }

    #[test]
    fn flash_crowd_joins_everyone() {
        let mut rng = Drbg::from_seed(6);
        let mut m = MykilModel::new(4, TreeConfig::quad(), &mut rng);
        let schedule = ChurnSchedule::flash_crowd(0, 64, 8);
        assert!(!schedule.is_empty());
        replay(&mut m, &schedule, &mut rng);
        assert_eq!(m.member_count(), 72);
    }
}
