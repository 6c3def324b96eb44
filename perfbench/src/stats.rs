//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is a quantile of the raw per-sample
//! values, never a histogram bucket edge. The rank rule is nearest-rank:
//! the `p`-th percentile of `n` sorted samples is the sample at 1-based
//! rank `ceil(p * n / 100)`, clamped to `1..=n`.

/// Percentiles the benchmark may quote, in thousandths of a percent so
/// the rank arithmetic stays exact in integers.
const LADDER_MILLI: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// Samples that must lie strictly beyond a percentile's rank before the
/// benchmark quotes it as supported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p_milli` (thousandths of a
/// percent) among `n` samples.
#[must_use]
pub fn rank(p_milli: u64, n: usize) -> usize {
    let n64 = n as u64;
    let r = (p_milli * n64).div_ceil(100_000);
    r.clamp(1, n64.max(1)) as usize
}

/// A sorted copy of raw samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or count).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-th percentile by the nearest-rank rule (`p` in percent).
    /// NaN when there are no samples.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let p_milli = (p * 1_000.0).round() as u64;
        self.sorted[rank(p_milli, self.sorted.len()) - 1]
    }

    /// The median (nearest rank).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// The highest quotable percentile (in percent) that has at least
    /// [`MIN_BEYOND`] samples strictly beyond its rank, or `None` when
    /// even the median lacks that support.
    #[must_use]
    pub fn supported_percentile(&self) -> Option<f64> {
        let n = self.sorted.len();
        LADDER_MILLI
            .iter()
            .rev()
            .find(|&&p| n >= MIN_BEYOND && n - rank(p, n) >= MIN_BEYOND)
            .map(|&p| p as f64 / 1_000.0)
    }

    /// One line for the human report: count, p50, the supported
    /// percentile and the maximum, in the caller's unit.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        match self.supported_percentile() {
            Some(p) => format!(
                "n={} p50={:.4}{unit} p{}={:.4}{unit} (highest supported) max={:.4}{unit}",
                self.len(),
                self.median(),
                p,
                self.percentile(p),
                self.max()
            ),
            None => format!(
                "n={} p50={:.4}{unit} max={:.4}{unit} (too few samples for a supported tail)",
                self.len(),
                self.median(),
                self.max()
            ),
        }
    }
}

/// Median of a small set of repeated measurements (upper median for an
/// even count, by the same nearest-rank rule).
#[must_use]
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        // ceil(p * n / 100), clamped to 1..=n
        assert_eq!(rank(50_000, 1), 1);
        assert_eq!(rank(50_000, 2), 1);
        assert_eq!(rank(50_000, 3), 2);
        assert_eq!(rank(99_000, 100), 99);
        assert_eq!(rank(99_000, 101), 100);
        assert_eq!(rank(99_000, 1_000), 990);
        assert_eq!(rank(99_900, 1_000), 999);
        assert_eq!(rank(0, 10), 1);
        assert_eq!(rank(100_000, 10), 10);
        assert_eq!(rank(50_000, 0), 1);
    }

    #[test]
    fn percentiles_are_sample_values_not_bucket_edges() {
        let s = Samples::new((1..=1_000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(99.9), 999.0);
        assert_eq!(s.max(), 1_000.0);
        let odd = Samples::new(vec![3.5, 1.25, 2.0]);
        assert_eq!(odd.median(), 2.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1
        let s = Samples::new((0..1_000).map(f64::from).collect());
        assert_eq!(s.supported_percentile(), Some(99.0));
        // 999 samples: p99 rank 990 leaves 9 beyond, so p90 is the limit
        let s = Samples::new((0..999).map(f64::from).collect());
        assert_eq!(s.supported_percentile(), Some(90.0));
        // 20 samples: p50 rank 10 leaves 10 beyond
        let s = Samples::new((0..20).map(f64::from).collect());
        assert_eq!(s.supported_percentile(), Some(50.0));
        let s = Samples::new((0..19).map(f64::from).collect());
        assert_eq!(s.supported_percentile(), None);
        // 10 000 samples reach p99.9
        let s = Samples::new((0..10_000).map(f64::from).collect());
        assert_eq!(s.supported_percentile(), Some(99.9));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
