//! The arithmetic every reported wall number goes through: the
//! minimum over identical passes — per stage of the set-up, per lap of
//! the timed ops — and the nearest-rank percentile.

/// Merges `R` passes of the same `N` ops into one row: op `i`'s time is
/// the smallest any pass measured for it.
///
/// The simulator is single-threaded and seed-deterministic, so op `i`
/// is the same work in every pass and interference from the host can
/// only add time; the minimum over passes is the program's own time.
///
/// # Panics
///
/// Panics when there is no pass or the passes differ in length (a
/// harness bug: every pass runs the same op list).
pub fn per_op_min(passes: &[&[u64]]) -> Vec<u64> {
    let first = passes.first().expect("at least one pass");
    assert!(
        passes.iter().all(|p| p.len() == first.len()),
        "passes ran different op counts"
    );
    (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).min().expect("non-empty"))
        .collect()
}

/// Folds one more pass's laps into the running per-lap minimum (which
/// starts out empty).
///
/// A lap is one simulator step or harness action. Taking the minimum
/// lap by lap and not op by op matters on a host that is disturbed most
/// of the time: an op of a thousand steps is then never seen undisturbed
/// as a whole, but each of its steps is, in one pass or another.
///
/// # Panics
///
/// Panics when the pass ran a different number of laps (a harness bug:
/// every pass replays the same event counts).
pub fn fold_lap_min(min: &mut Vec<u32>, laps: &[u32]) {
    if min.is_empty() {
        min.extend_from_slice(laps);
        return;
    }
    assert_eq!(min.len(), laps.len(), "passes ran different lap counts");
    for (m, &l) in min.iter_mut().zip(laps) {
        *m = (*m).min(l);
    }
}

/// Per-op wall time from per-lap times: op `i` owns the laps from
/// `op_start[i]` up to the next op's first lap.
pub fn op_sums(laps: &[u32], op_start: &[usize]) -> Vec<u64> {
    let ends = op_start.iter().skip(1).copied().chain([laps.len()]);
    op_start
        .iter()
        .zip(ends)
        .map(|(&a, b)| laps[a..b].iter().map(|&l| u64::from(l)).sum())
        .collect()
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are less than or equal to it.
///
/// # Panics
///
/// Panics on an empty sample or `pct` outside `(0, 100]`.
pub fn percentile(samples: &[u64], pct: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(pct > 0.0 && pct <= 100.0, "percentile outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of a possibly empty sample (0 when empty);
/// for layer-sheet rows that do not occur on every workload.
pub fn percentile_or_zero(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        0
    } else {
        percentile(samples, pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // The classic five-sample example: ranks ceil(p/100 * 5).
        let s = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&s, 5.0), 15);
        assert_eq!(percentile(&s, 30.0), 20);
        assert_eq!(percentile(&s, 40.0), 20);
        assert_eq!(percentile(&s, 50.0), 35);
        assert_eq!(percentile(&s, 90.0), 50);
        assert_eq!(percentile(&s, 100.0), 50);
    }

    #[test]
    fn nearest_rank_ignores_input_order_and_returns_a_sample() {
        let s = [9, 1, 8, 2, 7, 3, 6, 4, 5, 10];
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 90.0), 9);
        assert_eq!(percentile(&s, 91.0), 10);
        assert_eq!(percentile(&[42], 50.0), 42);
    }

    #[test]
    fn empty_sample_reads_zero_only_through_the_lenient_form() {
        assert_eq!(percentile_or_zero(&[], 50.0), 0);
        assert_eq!(percentile_or_zero(&[7, 9], 50.0), 7);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn strict_percentile_rejects_an_empty_sample() {
        percentile(&[], 50.0);
    }

    #[test]
    fn merge_takes_each_ops_minimum_across_passes() {
        let passes: [&[u64]; 3] = [&[10, 50, 30], &[12, 20, 31], &[11, 25, 29]];
        assert_eq!(per_op_min(&passes), vec![10, 20, 29]);
    }

    #[test]
    fn lap_fold_takes_each_laps_minimum_and_ops_sum_their_own_laps() {
        let mut min = Vec::new();
        fold_lap_min(&mut min, &[5, 9, 4, 7, 1]);
        fold_lap_min(&mut min, &[6, 2, 8, 3, 1]);
        assert_eq!(min, vec![5, 2, 4, 3, 1]);
        // Three ops of two, one and two laps: each op's sum is below
        // what either pass measured for it as a whole (14/4/8, 8/8/4).
        assert_eq!(op_sums(&min, &[0, 2, 3]), vec![7, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "different lap counts")]
    fn lap_fold_rejects_passes_of_unequal_length() {
        let mut min = vec![1, 2];
        fold_lap_min(&mut min, &[1]);
    }

    #[test]
    fn merge_of_one_pass_is_that_pass() {
        assert_eq!(per_op_min(&[&[3, 1, 2]]), vec![3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "different op counts")]
    fn merge_rejects_passes_of_unequal_length() {
        per_op_min(&[&[1, 2], &[1]]);
    }
}
