//! Distribution statistics: percentiles, means, CDF sampling.

use std::time::Duration;

/// An empirical distribution over durations (delivery delays, link
/// latencies, ...).
///
/// ```
/// use gocast_analysis::Cdf;
/// use std::time::Duration;
///
/// let cdf = Cdf::from_durations((1..=100).map(Duration::from_millis));
/// assert_eq!(cdf.percentile(0.5), Duration::from_millis(50));
/// assert_eq!(cdf.max(), Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<Duration>,
}

impl Cdf {
    /// Builds from any collection of durations.
    pub fn from_durations<I: IntoIterator<Item = Duration>>(values: I) -> Self {
        let mut sorted: Vec<Duration> = values.into_iter().collect();
        sorted.sort_unstable();
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (`0.0 ..= 1.0`), nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty or `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Duration {
        assert!(!self.sorted.is_empty(), "empty distribution");
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        let idx = ((self.sorted.len() as f64 * p).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Arithmetic mean.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> Duration {
        assert!(!self.sorted.is_empty(), "empty distribution");
        let sum: Duration = self.sorted.iter().sum();
        sum / self.sorted.len() as u32
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> Duration {
        *self.sorted.last().expect("empty distribution")
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> Duration {
        *self.sorted.first().expect("empty distribution")
    }

    /// The fraction of samples `<= x`.
    pub fn fraction_below(&self, x: Duration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Samples `k` evenly spaced `(value, cumulative fraction)` points —
    /// the series a CDF figure plots.
    pub fn curve(&self, k: usize) -> Vec<(Duration, f64)> {
        if self.sorted.is_empty() || k == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        (1..=k)
            .map(|i| {
                let idx = (n * i / k).saturating_sub(1).min(n - 1);
                (self.sorted[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }
}

/// Summary statistics over scalar samples (used by multi-seed sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for a single sample).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Computes summary statistics.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "empty sample set");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (min {:.4}, max {:.4}, n = {})",
            self.mean, self.std, self.min, self.max, self.n
        )
    }
}

/// A histogram over small integer values (node degrees).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds from integer samples.
    pub fn from_values<I: IntoIterator<Item = usize>>(values: I) -> Self {
        let mut h = Histogram::default();
        for v in values {
            if h.counts.len() <= v {
                h.counts.resize(v + 1, 0);
            }
            h.counts[v] += 1;
            h.total += 1;
        }
        h
    }

    /// Number of samples equal to `v`.
    pub fn count(&self, v: usize) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Fraction of samples equal to `v`.
    pub fn fraction(&self, v: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.total as f64
        }
    }

    /// Fraction of samples `<= v` (the CDF the paper's Figure 5(a) plots).
    pub fn cumulative_fraction(&self, v: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c: u64 = self.counts.iter().take(v + 1).sum();
        c as f64 / self.total as f64
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Largest observed value.
    pub fn max_value(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let c = Cdf::from_durations([ms(10), ms(20), ms(30), ms(40)]);
        assert_eq!(c.percentile(0.0), ms(10));
        assert_eq!(c.percentile(0.25), ms(10));
        assert_eq!(c.percentile(0.5), ms(20));
        assert_eq!(c.percentile(0.75), ms(30));
        assert_eq!(c.percentile(1.0), ms(40));
        assert_eq!(c.min(), ms(10));
        assert_eq!(c.max(), ms(40));
        assert_eq!(c.mean(), ms(25));
    }

    #[test]
    fn fraction_below_counts_inclusive() {
        let c = Cdf::from_durations([ms(10), ms(20), ms(30)]);
        assert_eq!(c.fraction_below(ms(5)), 0.0);
        assert!((c.fraction_below(ms(10)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.fraction_below(ms(30)), 1.0);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let c = Cdf::from_durations((1..=57).map(ms));
        let pts = c.curve(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let c = Cdf::default();
        assert!(c.is_empty());
        assert_eq!(c.fraction_below(ms(1)), 0.0);
        assert!(c.curve(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        let _ = Cdf::default().percentile(0.5);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - 1.2909944).abs() < 1e-6);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
        let single = Summary::from_values(&[7.0]);
        assert_eq!(single.std, 0.0);
        assert!(single.to_string().contains("n = 1"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_values(&[]);
    }

    #[test]
    fn histogram_fractions() {
        let h = Histogram::from_values([6, 6, 6, 7, 5, 6]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(6), 4);
        assert!((h.fraction(6) - 4.0 / 6.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(6) - 5.0 / 6.0).abs() < 1e-12);
        assert!((h.mean() - 36.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.max_value(), 7);
        assert_eq!(h.count(99), 0);
    }
}
