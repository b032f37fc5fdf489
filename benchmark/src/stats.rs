//! Order statistics for the benchmark's reports.
//!
//! Percentiles are nearest-rank (the `⌈p·n⌉`-th smallest sample), the
//! same convention the repo's histograms estimate, so a benchmark
//! number and a `wino-probe` number can be laid side by side.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [u32; 7] = [99, 95, 90, 80, 75, 70, 60];

/// A tail needs this many samples beyond it to be more than one
/// outlier's position.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample set ascending (NaN-free by construction: every
/// sample is a measured duration or count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`;
/// 0 for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    let rank = ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest percentile of [`TAIL_LADDER`] not above `cap` with at
/// least [`MIN_BEYOND`] samples beyond it; the ladder's lowest entry
/// when `n` supports none (a `--quick` run), so a tail is always
/// reported and the caller prints `n` beside it.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// Inter-quartile range over the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the spread the driver computes over ten runs. 0 for fewer than two
/// values or a zero median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted list, interpolated.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = quantile(2);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90, ten beyond; p95 only five.
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(100, 95), 5);
        assert_eq!(tail_percentile(100, 99), 90);
        assert_eq!(tail_percentile(99, 99), 80);
        assert_eq!(tail_percentile(1000, 99), 99);
        // The cap holds a workload to the percentile its issue names.
        assert_eq!(tail_percentile(1000, 90), 90);
        // 43 sweeps support p75 (rank 33, ten beyond), not p80.
        assert_eq!(tail_percentile(43, 90), 75);
        // Too few for any rung: the lowest is reported, n says why.
        assert_eq!(tail_percentile(5, 90), 60);
    }

    #[test]
    fn relative_iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[4.0]), 0.0);
    }
}
