//! Summary statistics: medians, nearest-rank percentiles, quartile
//! spread, and the machine-speed factors that steady a phase's timings.

use std::ops::Range;

/// Consecutive windows a measured phase is cut into to read the machine's
/// speed: 40 ms each at twelve seconds — shorter than the slow spells of a
/// shared machine, so some windows fall wholly outside them.
pub const WINDOWS: usize = 300;
/// A window holds at least this many operations, so that its median is
/// that of the common operation; short phases get fewer windows.
pub const MIN_WINDOW_OPS: usize = 16;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The `pct`-th percentile (nearest rank, `0 < pct <= 100`) of `sorted`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], pct: f64) -> T {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Splits `len` operations into up to `max_windows` equal consecutive
/// ranges of at least `min_ops` (one range if there are fewer).
pub fn equal_windows(len: usize, max_windows: usize, min_ops: usize) -> Vec<Range<usize>> {
    let count = (len / min_ops).clamp(1, max_windows);
    (0..count).map(|w| w * len / count..(w + 1) * len / count).collect()
}

/// How much slower than at its best the machine ran while each operation
/// of a phase did, as one factor `>= 1` per operation.
///
/// The phase is cut into [`WINDOWS`] equal consecutive windows (of at
/// least [`MIN_WINDOW_OPS`]); a window's speed is the median latency of
/// its operations, the machine's best is the smallest of those medians,
/// and every operation of a window gets `its window's median / the best`.
///
/// Why: on a shared machine interference only ever slows the client down
/// — a neighbour on the sibling hyperthread, a frequency dip — and on the
/// box this was sized on it comes and goes within tens of milliseconds
/// and in spells of seconds to minutes, worth 30 %.  A rate or percentile
/// taken over a run as it stands reads "fast" or "slow" by luck (quartile
/// spreads of 9–34 % over ten runs of identical code; see the README).
/// Dividing every operation's time by its factor takes the spells out
/// and keeps the operations in: a rare slow one — a hot-tier admission,
/// a checkpoint, a log-segment rollover — stays as many times slower
/// than its neighbours as it was, and counts in every rate and
/// percentile.  What the division cannot tell from the machine is a
/// slowdown of the *program* that lasts a whole window and lifts its
/// median; here the client is the only thread doing timed work.
pub fn slowdown(latency_ns: &[u64]) -> Vec<f64> {
    let windows = equal_windows(latency_ns.len(), WINDOWS, MIN_WINDOW_OPS);
    let medians: Vec<f64> = windows
        .iter()
        .map(|w| {
            let mut sorted = latency_ns[w.clone()].to_vec();
            sorted.sort_unstable();
            sorted.get(sorted.len() / 2).map_or(1.0, |&ns| ns.max(1) as f64)
        })
        .collect();
    let best = medians.iter().copied().fold(f64::INFINITY, f64::min);
    windows.iter().zip(&medians).flat_map(|(w, &m)| w.clone().map(move |_| m / best)).collect()
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values, n=4)`
/// gives (the "exclusive" method) — the driver's stability criterion.
/// `None` for fewer than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        // CPython's arithmetic: rescale k to (n+1)/4, clamp the lower
        // neighbour to 1..n-1, interpolate with the exact remainder.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn windows_are_equal_consecutive_and_cover_everything() {
        let cut = |len| equal_windows(len, WINDOWS, MIN_WINDOW_OPS);
        let w = cut(30_050);
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w[0].start, 0);
        assert_eq!(w[WINDOWS - 1].end, 30_050);
        assert!(w.windows(2).all(|p| p[0].end == p[1].start));
        assert!(w.iter().all(|r| (100..=101).contains(&r.len())));
        // Short phases get fewer, not smaller, windows.
        assert_eq!(cut(100).len(), 6);
        assert_eq!(cut(5), vec![0..5]);
        assert_eq!(cut(0), vec![0..0]);
    }

    #[test]
    fn slowdown_follows_a_slow_spell_and_ignores_slow_operations() {
        // 4800 operations of 1000 ns, every twentieth of 3000 ns; the
        // machine runs the middle half 30 % slow.
        let steady: Vec<u64> = (0..4800).map(|i| if i % 20 == 7 { 3000 } else { 1000 }).collect();
        assert!(slowdown(&steady).iter().all(|&s| s == 1.0));
        let mut spell = steady.clone();
        for s in &mut spell[1200..3600] {
            *s = *s * 13 / 10;
        }
        let factors = slowdown(&spell);
        assert_eq!(factors.len(), spell.len());
        assert!(factors[..1200].iter().chain(&factors[3600..]).all(|&s| s == 1.0));
        assert!(factors[1200..3600].iter().all(|&s| s == 1.3));
        // Divided by its factor, every operation reads as on a quiet machine.
        let restored: Vec<u64> =
            spell.iter().zip(&factors).map(|(&ns, &s)| (ns as f64 / s).round() as u64).collect();
        assert_eq!(restored, steady);
        // Too few operations for two windows: one window, no correction.
        assert_eq!(slowdown(&[10, 20, 30]), [1.0, 1.0, 1.0]);
        assert!(slowdown(&[]).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 95.0), 95);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&values).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[1.0, 2.0, 4.0]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0]), None);
    }
}
