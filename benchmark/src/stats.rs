//! Order statistics: percentiles with the sample-count rule, and the
//! quartiles `benchmark compare` uses.

/// The percentiles a tail metric may be reported at, highest first.
const LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank percentile of an ascending slice (`0 < p <= 1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p` percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile on the ladder with at least ten samples beyond
/// it, so that one stray sample cannot set the number alone. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// The median of `values` (the lower middle one of an even count), or
/// 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values.to_vec()), 0.5)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Operations per second from the durations in ms of operations run one
/// at a time: the median over consecutive windows of `per` operations
/// (whole windows only; all of them when there is none), so that, as
/// for [`windowed_percentile`], a burst of load from other tenants of a
/// shared machine that slows a few windows moves it little.
pub fn windowed_rate(durations_ms: &[f64], per: usize) -> f64 {
    let rate = |w: &[f64]| w.len() as f64 * 1e3 / w.iter().sum::<f64>();
    let rates: Vec<f64> = durations_ms.chunks_exact(per).map(rate).collect();
    if rates.is_empty() {
        return rate(durations_ms);
    }
    median(&rates)
}

/// The median over consecutive windows of `per` samples (whole windows
/// only) of each window's nearest-rank `p` percentile, so a burst of
/// load from other tenants that slows a few windows moves it little, as
/// [`windowed_rate`] does for rates. With no whole window it is the
/// percentile of all samples.
pub fn windowed_percentile(samples: &[f64], per: usize, p: f64) -> f64 {
    let windows: Vec<f64> = samples
        .chunks_exact(per)
        .map(|w| percentile(&sorted(w.to_vec()), p))
        .collect();
    if windows.is_empty() {
        return percentile(&sorted(samples.to_vec()), p);
    }
    median(&windows)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default `exclusive` method), so `benchmark compare` and any
/// script reading the same files agree. One value gives itself thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n > 0, "quartiles of no values");
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A quantile of a log₂-bucketed histogram as the daemon's `stats` verb
/// reports it: `[[exclusive_upper_bound_or_null, count], ...]`. Returns
/// the upper bound of the bucket holding the quantile, or 0 when empty.
pub fn bucket_quantile(buckets: &[(Option<f64>, f64)], p: f64) -> f64 {
    let total: f64 = buckets.iter().map(|(_, c)| c).sum();
    if total == 0.0 {
        return 0.0;
    }
    let want = (p * total).ceil().max(1.0);
    let mut acc = 0.0;
    let mut last = 0.0;
    for (limit, count) in buckets {
        acc += count;
        last = limit.unwrap_or(last * 2.0);
        if acc >= want {
            return last;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(500), Some(0.98));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn windowed_rate_ignores_a_slow_burst() {
        // 100 ms per operation, except one window at ten times that.
        let ms: Vec<f64> = (0..5)
            .flat_map(|w| [if w == 2 { 1000.0 } else { 100.0 }; 10])
            .collect();
        assert!((windowed_rate(&ms, 10) - 10.0).abs() < 1e-9);
        // Whole windows only: the slow window's first half is left out.
        assert!((windowed_rate(&ms[..25], 10) - 10.0).abs() < 1e-9);
        assert!((windowed_rate(&ms[20..25], 10) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_percentiles_ignore_a_slow_window() {
        // Windows of 1..=20 ms, one of them slowed threefold.
        let mut samples = Vec::new();
        for w in 0..5 {
            let scale = if w == 1 { 3.0 } else { 1.0 };
            samples.extend((1..=20).map(|ms| f64::from(ms) * scale));
        }
        assert_eq!(windowed_percentile(&samples, 20, 0.5), 10.0);
        assert_eq!(windowed_percentile(&samples, 20, 0.95), 19.0);
        // Pooled, the slowed window's samples hold the whole top 5%.
        assert_eq!(percentile(&sorted(samples.clone()), 0.95), 45.0);
        // Fewer samples than one window: all of them.
        assert_eq!(windowed_percentile(&samples[..10], 20, 0.5), 5.0);
    }

    #[test]
    fn bucket_quantiles_pick_the_covering_bucket() {
        let b = [(Some(4.0), 5.0), (Some(8.0), 4.0), (Some(16.0), 1.0)];
        assert_eq!(bucket_quantile(&b, 0.5), 4.0);
        assert_eq!(bucket_quantile(&b, 0.9), 8.0);
        assert_eq!(bucket_quantile(&b, 0.99), 16.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
