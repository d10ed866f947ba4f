//! Order statistics: medians, the percentile ladder the guide asks for,
//! and the quartile spread the acceptance rule is written in.

/// Median of `values` (mean of the two middle ones for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of an ascending slice, nearest-rank.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; `None` when even the median has fewer.
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Quartiles of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(99), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(999), Some(0.9));
        assert_eq!(top_percentile(1000), Some(0.99));
        assert_eq!(top_percentile(453_600), Some(0.9999));
        assert_eq!(top_percentile(3_069_000), Some(0.99999));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([375,381,385,387,398,398], n=4)
        //   == [379.5, 386.0, 398.0]
        assert_eq!(
            quartiles(&[398.0, 375.0, 385.0, 381.0, 398.0, 387.0]),
            [379.5, 386.0, 398.0]
        );
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
