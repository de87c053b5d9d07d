//! Order statistics over the samples a run collects.

/// The `p`-th quantile (0..=1) by the nearest-rank rule, so a reported
/// percentile is always a value that was measured.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle values of an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the samples between the 40th and the 60th percentile: a
/// median that does not snap to the clock's resolution. A sub-µs
/// latency measured in whole nanoseconds has a handful of distinct
/// medians, and could read exactly the same on every run.
pub fn mid_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mid-mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (
        sorted.len() * 2 / 5,
        (sorted.len() * 3).div_ceil(5).max(sorted.len() * 2 / 5 + 1),
    );
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// First quartile, median and third quartile by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive), which is
/// what the acceptance rule for run-to-run spread is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn mid_mean_is_a_smooth_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(mid_mean(&v), 50.5);
        assert_eq!(mid_mean(&[7.0]), 7.0);
        assert_eq!(mid_mean(&[1.0, 2.0, 90.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
