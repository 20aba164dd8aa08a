//! Exact statistics over raw samples: medians, quartiles, tail
//! percentiles and the paper's penalised means. Nothing here buckets —
//! `obs::LatencyHistogram`'s ~33 %-wide buckets cannot resolve a 10 %
//! regression bound, so the harness keeps every sample and sorts.

use sp2b_core::metrics::{arithmetic_mean, geometric_mean, PENALTY_SECONDS};

/// A tail percentile is only reported when this many samples lie beyond
/// it; fewer and the value is one outlier, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// `samples` sorted ascending (NaN-free by construction: every sample is
/// a clock difference or a count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of ascending `sorted` (mean of the two middle samples for
/// an even count; 0 for none).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

/// First and third quartile of ascending `sorted`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method)
/// does — the acceptance driver measures spread with that function, so
/// `compare` and `selfcheck` must agree with it to the last digit.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A value that is not a distribution (an exact count, a ratio).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Quartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The same summary in another unit.
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
        }
    }
}

/// Summarises raw samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let (q1, q3) = quartiles_sorted(&s);
    Summary {
        n: s.len(),
        median: median_sorted(&s),
        q1,
        q3,
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of ascending `sorted`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of ascending `sorted` that still has
/// [`TAIL_SAMPLES`] samples beyond it, as `(percentile, value)`; `None`
/// when the sample is too small to have one.
pub fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let rank = n - TAIL_SAMPLES; // 1-based rank with exactly TAIL_SAMPLES beyond
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// The 99th percentile when the sample supports it, otherwise the
/// highest percentile it does support (the maximum for tiny samples).
pub fn p99_or_tail(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n as f64 * 0.01 >= TAIL_SAMPLES as f64 {
        return percentile_sorted(sorted, 0.99);
    }
    match tail_sorted(sorted) {
        Some((_, v)) => v,
        None => sorted.last().copied().unwrap_or(0.0),
    }
}

/// The paper's `Ta`/`Tg` (Section VI-B): arithmetic and geometric mean
/// of per-operation seconds, a failed operation (`None`) ranked with
/// the 3600 s penalty.
pub fn penalised_means(seconds: &[Option<f64>]) -> (f64, f64) {
    let ranked: Vec<f64> = seconds
        .iter()
        .map(|s| s.unwrap_or(PENALTY_SECONDS))
        .collect();
    (arithmetic_mean(&ranked), geometric_mean(&ranked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = tail_sorted(&v).unwrap();
        assert_eq!(value, 990.0);
        assert!((p - 0.99).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_SAMPLES);
        assert_eq!(tail_sorted(&v[..10]), None);
        // 1000 samples support p99 exactly; 100 fall back to p90.
        assert_eq!(p99_or_tail(&v), 990.0);
        assert_eq!(p99_or_tail(&v[..100]), 90.0);
        assert_eq!(p99_or_tail(&v[..5]), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 100.0);
        assert_eq!(percentile_sorted(&v, 0.99), 198.0);
        assert_eq!(percentile_sorted(&v, 1.0), 200.0);
    }

    #[test]
    fn means_rank_failures_with_the_penalty() {
        let (ta, tg) = penalised_means(&[Some(1.0), Some(4.0), Some(16.0)]);
        assert!((ta - 7.0).abs() < 1e-12);
        assert!((tg - 4.0).abs() < 1e-9);
        let (ta, tg) = penalised_means(&[Some(1.0), None]);
        assert!((ta - 1800.5).abs() < 1e-9);
        assert!((tg - 60.0).abs() < 1e-9, "sqrt(1 * 3600) = 60, got {tg}");
    }
}
