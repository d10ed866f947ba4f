//! The one streaming histogram's layout, checked against its definition:
//! every `u64` lies in the bucket its index names, the buckets tile
//! `[0, u64::MAX]` with no gap or overlap, and a quantile read off the
//! buckets is at most 1/32 above the exact nearest-rank quantile and exact
//! below 64. Count, sum, min and max are exact.

use gocast_metrics::{Log2Histogram, BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

const MS: u64 = 1_000_000;

/// The exact nearest-rank `q`-quantile of `sorted` (the rank
/// `gocast_analysis::Cdf::percentile` uses).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

fn histogram_of(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Checks `h`'s `q`-quantile against the exact one over `sorted`.
fn check_quantile(h: &Log2Histogram, sorted: &[u64], q: f64) -> Result<(), String> {
    let exact = nearest_rank(sorted, q);
    let bound = h.quantile_upper_bound(q);
    let ok = if exact < 64 {
        bound == exact
    } else {
        bound >= exact && bound - exact <= exact / 32
    };
    if ok {
        Ok(())
    } else {
        Err(format!("q={q}: bound {bound}, exact {exact}"))
    }
}

proptest! {
    #[test]
    fn every_value_lies_within_its_buckets_bounds(x in any::<u64>(), drop in 0u32..64) {
        // Shifting spreads the draws over every octave, not just the top.
        let v = x >> drop;
        let i = Log2Histogram::bucket_index(v);
        prop_assert!(i < BUCKETS, "{v} maps past the last bucket: {i}");
        let (lo, hi) = Log2Histogram::bucket_bounds(i);
        let top_holds_max = i == BUCKETS - 1 && v == u64::MAX;
        prop_assert!(lo <= v && (v < hi || top_holds_max), "{v} outside [{lo}, {hi})");
        if v < 64 {
            prop_assert_eq!((lo, hi), (v, v + 1));
        } else {
            prop_assert!(hi - lo <= lo / 32, "[{lo}, {hi}) wider than 1/32 of {lo}");
        }
    }

    #[test]
    fn quantiles_are_within_a_32nd_of_the_exact_ones(
        draws in vec((any::<u64>(), 0u32..64), 1..400),
        q in 0.0f64..1.0,
    ) {
        let mut values: Vec<u64> = draws.iter().map(|&(x, drop)| x >> drop).collect();
        let h = histogram_of(&values);
        values.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        let sum = values.iter().fold(0u64, |s, &v| s.saturating_add(v));
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!((h.min(), h.max()), (values[0], values[values.len() - 1]));
        for q in [q, 0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let checked = check_quantile(&h, &values, q);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
        prop_assert_eq!(h.quantile_upper_bound(1.0), h.max());
    }

    #[test]
    fn quantiles_below_64_are_exact(mut values in vec(0u64..64, 1..200), q in 0.0f64..1.0) {
        let h = histogram_of(&values);
        values.sort_unstable();
        for q in [q, 0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert_eq!(h.quantile_upper_bound(q), nearest_rank(&values, q), "q={}", q);
        }
    }
}

#[test]
fn buckets_tile_the_whole_u64_range() {
    assert_eq!(Log2Histogram::bucket_bounds(0).0, 0);
    for i in 0..BUCKETS {
        let (lo, hi) = Log2Histogram::bucket_bounds(i);
        assert!(lo < hi, "bucket {i} is empty");
        assert_eq!(Log2Histogram::bucket_index(lo), i, "low edge of {i}");
        assert_eq!(Log2Histogram::bucket_index(hi - 1), i, "high edge of {i}");
        if i + 1 < BUCKETS {
            assert_eq!(hi, Log2Histogram::bucket_bounds(i + 1).0, "gap after {i}");
        }
    }
    assert_eq!(Log2Histogram::bucket_bounds(BUCKETS - 1).1, u64::MAX);
    assert_eq!(Log2Histogram::bucket_index(u64::MAX), BUCKETS - 1);
}

#[test]
fn tracks_exact_moments() {
    let h = histogram_of(&[10 * MS, 20 * MS, 30 * MS, 40 * MS]);
    assert_eq!(h.count(), 4);
    assert_eq!(h.sum() / h.count(), 25 * MS);
    assert_eq!((h.min(), h.max()), (10 * MS, 40 * MS));
    assert_eq!(h.quantile_upper_bound(1.0), 40 * MS);
    let p0 = h.quantile_upper_bound(0.0);
    assert!((10 * MS..=10 * MS + 10 * MS / 32).contains(&p0), "p0 {p0}");
}

#[test]
fn percentiles_match_the_exact_ones_within_bucket_error() {
    let mut values: Vec<u64> = (0..10_000u64).map(|i| (i * 13 % 997 + 1) * MS).collect();
    let h = histogram_of(&values);
    values.sort_unstable();
    assert_eq!((h.min(), h.max()), (values[0], values[values.len() - 1]));
    assert_eq!(h.sum(), values.iter().sum::<u64>());
    for q in [0.1, 0.5, 0.9, 0.99] {
        let exact = nearest_rank(&values, q) as f64;
        let bound = h.quantile_upper_bound(q) as f64;
        assert!(
            (bound - exact).abs() / exact < 0.04,
            "p{q}: bound {bound} vs exact {exact}"
        );
        check_quantile(&h, &values, q).unwrap();
    }
}

#[test]
fn values_below_64_are_exact() {
    let values: Vec<u64> = (0..64).collect();
    let h = histogram_of(&values);
    for q in [0.25, 0.5, 0.75, 1.0] {
        assert_eq!(
            h.quantile_upper_bound(q),
            nearest_rank(&values, q),
            "q = {q}"
        );
    }
}

#[test]
fn size_is_fixed_and_at_most_16_kib() {
    assert!(std::mem::size_of::<Log2Histogram>() <= 16 * 1024);
    // An hour in nanoseconds has a bucket like any other value.
    let h = histogram_of(&[3_600_000 * MS]);
    assert_eq!(h.quantile_upper_bound(0.5), 3_600_000 * MS);
}

#[test]
fn an_empty_histogram_reads_zero() {
    let h = Log2Histogram::new();
    assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
    assert_eq!(h.quantile_upper_bound(0.5), 0);
    assert_eq!(h.mean(), 0.0);
}
