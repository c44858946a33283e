//! Sample arithmetic: medians, quartiles, percentiles and the canary
//! adjustment. Everything here is pure so it can be unit tested.

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// What is printed beside every metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        p25: quantile(&s, 0.25),
        p75: quantile(&s, 0.75),
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A time measured while the canary ran at `canary_ms`, restated for a
/// host on which it runs at `nominal_ms`.
pub fn adjust_time(raw: f64, canary_ms: f64, nominal_ms: f64) -> f64 {
    raw * nominal_ms / canary_ms
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (its default "exclusive" method) — the spread the driver gates.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quantile(&s, 0.5)
}

/// Largest |a − b| / min(a, b) over all pairs: how far two sets of runs
/// of the same code disagree.
pub fn max_pairwise_deviation(values: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for (i, a) in values.iter().enumerate() {
        for b in &values[i + 1..] {
            worst = worst.max((a - b).abs() / a.min(*b));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                n: 5,
                median: 3.0,
                p25: 2.0,
                p75: 4.0
            }
        );
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn canary_adjustment() {
        // The host ran 20 % slow: a 120 ms sample is a 100 ms sample.
        assert!((adjust_time(120.0, 60.0, 50.0) - 100.0).abs() < 1e-9);
        assert_eq!(adjust_time(80.0, 50.0, 50.0), 80.0);
    }

    #[test]
    fn iqr_share_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 9], n=4) == [9.5, 11.0, 13.5]
        assert!((iqr_share(&[10.0, 12.0, 11.0, 15.0, 9.0]) - 4.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_deviation() {
        assert!((max_pairwise_deviation(&[100.0, 104.0, 98.0]) - 6.0 / 98.0).abs() < 1e-12);
        assert_eq!(max_pairwise_deviation(&[5.0]), 0.0);
    }
}
