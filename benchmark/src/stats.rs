//! Order statistics and window arithmetic: percentiles, medians of
//! sub-window statistics, geometric means, and the quartile spread the
//! acceptance rule is phrased in.

use std::ops::Range;

/// Sub-windows a measured window is cut into. Rates and percentiles are
/// reported as the [`favourable_quartile`] over them, so noisy stretches
/// of a shared machine move some sub-windows, not the reported number.
pub const SUB_WINDOWS: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`): the
/// smallest element with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending (total order; the harness never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle element, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values — the per-class combiner, so one
/// codec's gain is not drowned by the slowest codec's share of wall time.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Cuts `n` consecutive samples into `k` contiguous groups whose sizes
/// are multiples of `unit` (one round of op classes) and differ by at
/// most one unit. Fewer than `k` whole units yields fewer groups.
pub fn split_windows(n: usize, k: usize, unit: usize) -> Vec<Range<usize>> {
    let units = n / unit.max(1);
    let k = k.min(units).max(1);
    let (base, extra) = (units / k, units % k);
    let mut out = Vec::with_capacity(k);
    let mut at = 0;
    for i in 0..k {
        let len = (base + usize::from(i < extra)) * unit.max(1);
        out.push(at..at + len);
        at += len;
    }
    out
}

/// The quartile of per-sub-window statistics on the good side: the
/// third for a rate, the first for a latency or a cost. What a shared
/// machine does to a sub-window only ever makes it worse, and on the
/// reference sandbox such stretches last seconds and at times cover
/// more than half a run, so the median of sub-windows moved by 10 %
/// between runs of one commit where this quartile moved by 2–3 %. A
/// real regression shifts every sub-window, and this with them.
pub fn favourable_quartile(per_window: &[f64], higher_is_better: bool) -> f64 {
    if per_window.len() < 2 {
        return per_window[0];
    }
    let (q1, q3) = quartiles(per_window);
    if higher_is_better {
        q3
    } else {
        q1
    }
}

/// `(max − min) / median` of a per-window statistic: how much the
/// sub-windows disagree.
pub fn window_spread(per_window: &[f64]) -> f64 {
    let v = sorted(per_window);
    (v[v.len() - 1] - v[0]) / median(&v)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: sort, then count how many samples sit at or below each
    /// candidate until the share reaches `q`.
    fn percentile_oracle(values: &[f64], q: f64) -> f64 {
        let v = sorted(values);
        for &x in &v {
            let at_or_below = v.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 >= q * v.len() as f64 {
                return x;
            }
        }
        v[v.len() - 1]
    }

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as f64 / 1e3
            })
            .collect()
    }

    #[test]
    fn percentile_matches_sorted_vec_oracle() {
        for (seed, n) in [(1, 1), (2, 2), (3, 7), (4, 25), (5, 100), (6, 301)] {
            let v = lcg(seed, n);
            let s = sorted(&v);
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(percentile(&s, q), percentile_oracle(&v, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn windows_cover_whole_units_in_order() {
        let w = split_windows(52, 5, 5);
        assert_eq!(w, vec![0..10, 10..20, 20..30, 30..40, 40..50]);
        let w = split_windows(12, 5, 1);
        assert_eq!(w, vec![0..3, 3..6, 6..8, 8..10, 10..12]);
        assert_eq!(split_windows(3, 5, 1).len(), 3);
    }

    #[test]
    fn favourable_quartile_ignores_the_disturbed_windows() {
        // Six of ten sub-windows were slowed down; the rate reported is
        // still that of the undisturbed ones, the latency likewise.
        let rates = [
            100.0, 70.0, 80.0, 100.0, 75.0, 60.0, 100.0, 85.0, 100.0, 65.0,
        ];
        assert_eq!(favourable_quartile(&rates, true), 100.0);
        let lat = [10.0, 14.0, 12.0, 10.0, 13.0, 16.0, 10.0, 12.0, 10.0, 15.0];
        assert_eq!(favourable_quartile(&lat, false), 10.0);
        assert_eq!(favourable_quartile(&[3.0], true), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
