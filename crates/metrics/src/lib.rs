//! # gocast-metrics — zero-steady-state-allocation runtime telemetry
//!
//! The live counterpart of the offline analysis crates: where
//! `gocast-analysis` folds recorded event streams *after* a run, this
//! crate instruments the runtime itself — the simulation kernel, the
//! protocol stacks, and the loopback-UDP fabric — while it executes.
//!
//! Three primitives, all plain-old-data with `&mut self` update paths:
//!
//! - [`Counter`] — a monotonic `u64`;
//! - [`Gauge`] — a signed level with a high-water mark;
//! - [`Log2Histogram`] — a fixed-size log-linear histogram (exact below
//!   64, 32 sub-buckets an octave above, exact count/sum/min/max): the
//!   one streaming distribution, from kernel queue depths to the delivery
//!   ledger's delays.
//!
//! None of them allocate, lock, or hash — ever. Updating a metric is an
//! array index plus an integer add, so the hot paths of a simulation
//! processing millions of events per second can stay instrumented
//! permanently (the kernel's `zero_alloc` test asserts the claim).
//!
//! A [`Snapshot`] is taken on demand: it copies current values into an
//! ordered list of named entries that can be rendered as a table or
//! streamed as one JSON object per sample. Entries carry a
//! *wall-clock* flag: values derived from `Instant` readings (dispatch
//! timings) vary run to run, so [`Snapshot::write_json_fields`] can
//! exclude them — keeping JSONL time-series byte-identical for a given
//! seed at any `--jobs` count.
//!
//! ```
//! use gocast_metrics::{Log2Histogram, Snapshot};
//!
//! let mut h = Log2Histogram::new();
//! for v in [0, 1, 2, 3, 4, 1000] {
//!     h.observe(v);
//! }
//! assert_eq!(h.count(), 6);
//! assert_eq!(h.max(), 1000);
//!
//! let mut snap = Snapshot::new();
//! snap.record_histogram("latency", &h);
//! let mut line = String::new();
//! snap.write_json_fields(&mut line, true);
//! assert!(line.starts_with("\"latency\":{\"count\":6,"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod manifest;

pub use manifest::RunManifest;

/// A monotonic event counter.
///
/// ```
/// use gocast_metrics::Counter;
///
/// let mut c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A signed level with a high-water mark.
///
/// ```
/// use gocast_metrics::Gauge;
///
/// let mut g = Gauge::default();
/// g.set(7);
/// g.set(3);
/// assert_eq!(g.get(), 3);
/// assert_eq!(g.high_water(), 7);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
    high_water: i64,
}

impl Gauge {
    /// Sets the current level, updating the high-water mark.
    #[inline]
    pub fn set(&mut self, v: i64) {
        self.value = v;
        if v > self.high_water {
            self.high_water = v;
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value
    }

    /// Highest level ever set.
    #[inline]
    pub fn high_water(&self) -> i64 {
        self.high_water
    }
}

/// Sub-bucket bits: every octave from 64 up splits into `2^SUB_BITS` = 32
/// equal-width buckets.
const SUB_BITS: u32 = 5;

/// Number of buckets in a [`Log2Histogram`]: one per value below 64, then
/// 32 per octave `[2^k, 2^(k+1))` for `k` in `6..=63`.
pub const BUCKETS: usize = 64 + (63 - SUB_BITS as usize) * (1 << SUB_BITS);

/// A fixed-size log-linear histogram: exact below 64, 32 sub-buckets an
/// octave above, so a bucket is never wider than 1/32 of its lower edge.
///
/// Values below 64 each have their own bucket. A value `v ≥ 64` in octave
/// `[2^k, 2^(k+1))` falls into one of 32 buckets `2^(k-5)` wide; the top
/// bucket ends at (and includes) `u64::MAX`, so every `u64` has a bucket
/// and nothing is clamped. `count`, `sum`, `min` and `max` are exact;
/// [`quantile_upper_bound`](Self::quantile_upper_bound) is the
/// nearest-rank quantile rounded up to its bucket's last value, at most
/// 1/32 above the exact one (exact below 64).
///
/// The whole histogram is one inline array of [`BUCKETS`] counts (15 KiB):
/// `observe` is a `leading_zeros`, a shift and four adds — no
/// allocation, no branching on magnitude, suitable for paths running
/// millions of times per second.
///
/// ```
/// use gocast_metrics::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.observe(7); // bucket 7: exact
/// h.observe(1000); // [992, 1008): 16 wide in the octave [512, 1024)
/// assert_eq!(h.bucket_count(7), 1);
/// assert_eq!(Log2Histogram::bucket_bounds(Log2Histogram::bucket_index(1000)), (992, 1008));
/// assert_eq!((h.min(), h.max()), (7, 1000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Log2Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        // `shift` is 0 below 64 (the value is its own index); above, `v`'s
        // top six bits (32..64) pick the sub-bucket of octave `shift + 5`.
        let shift = 58 - (v | 32).leading_zeros();
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `i`. The top
    /// bucket's `hi` is `u64::MAX`, which it also holds.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let (lo, last) = Self::bucket_range(i);
        (lo, last.saturating_add(1))
    }

    /// The inclusive value range `[lo, last]` of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < BUCKETS, "bucket {i} out of range");
        let shift = ((i >> SUB_BITS) as u32).saturating_sub(1);
        let lo = ((i - ((shift as usize) << SUB_BITS)) as u64) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Records one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// `(bucket index, count)` for every non-empty bucket, in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The nearest-rank quantile `q` (`0.0..=1.0`) rounded up to the last
    /// value of its bucket and capped at the largest value: at most 1/32
    /// above the exact quantile, exact below 64. The same number
    /// [`HistogramSnapshot::quantile_upper_bound`] reads off a copy.
    /// Returns 0 when empty.
    ///
    /// ```
    /// use gocast_metrics::Log2Histogram;
    ///
    /// let mut delays = Log2Histogram::new();
    /// for ms in 1..=100u64 {
    ///     delays.observe(ms * 1_000_000);
    /// }
    /// assert_eq!(delays.count(), 100);
    /// assert_eq!(delays.max(), 100_000_000);
    /// let p50 = delays.quantile_upper_bound(0.5);
    /// assert!((50_000_000..=50_000_000 + 50_000_000 / 32).contains(&p50));
    /// assert_eq!(delays.quantile_upper_bound(1.0), 100_000_000);
    /// ```
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        quantile_upper_bound(self.nonzero_buckets(), self.count, self.max, q)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A point-in-time copy of a histogram, detached from its fixed buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(bucket index, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// [`Log2Histogram::quantile_upper_bound`] of the histogram this
    /// copies. Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let buckets = self.buckets.iter().map(|&(i, c)| (i as usize, c));
        quantile_upper_bound(buckets, self.count, self.max, q)
    }
}

/// The one quantile: walks non-empty `(bucket, count)` pairs in ascending
/// order to the first that covers the nearest rank of `q` among `count`
/// values, and returns that bucket's last value capped at `max`.
fn quantile_upper_bound(
    buckets: impl Iterator<Item = (usize, u64)>,
    count: u64,
    max: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in buckets {
        seen += c;
        if seen >= target {
            return Log2Histogram::bucket_range(i).1.min(max);
        }
    }
    max
}

/// One snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter reading.
    Counter(u64),
    /// A gauge reading with its high-water mark.
    Gauge {
        /// Level at snapshot time.
        value: i64,
        /// Highest level ever set.
        high_water: i64,
    },
    /// A histogram copy.
    Histogram(HistogramSnapshot),
}

/// A named snapshot entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Stable snake_case metric name (a schema other tools parse).
    pub name: &'static str,
    /// The value at snapshot time.
    pub value: MetricValue,
    /// Whether the value derives from wall-clock readings (excluded from
    /// deterministic artifacts).
    pub wall: bool,
}

/// An ordered, named copy of metric values, taken on demand.
///
/// Snapshots allocate (they are off the hot path by design); the metrics
/// they copy never do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in recording order.
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Records a counter reading.
    pub fn record_counter(&mut self, name: &'static str, value: u64) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Counter(value),
            wall: false,
        });
    }

    /// Records a gauge reading.
    pub fn record_gauge(&mut self, name: &'static str, gauge: Gauge) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Gauge {
                value: gauge.get(),
                high_water: gauge.high_water(),
            },
            wall: false,
        });
    }

    /// Records a gauge-style level without a live [`Gauge`] behind it.
    pub fn record_level(&mut self, name: &'static str, value: i64, high_water: i64) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Gauge { value, high_water },
            wall: false,
        });
    }

    /// Records a histogram copy.
    pub fn record_histogram(&mut self, name: &'static str, h: &Log2Histogram) {
        self.push_histogram(name, h, false);
    }

    /// Records a histogram copy derived from wall-clock readings
    /// (excluded from deterministic renderings).
    pub fn record_wall_histogram(&mut self, name: &'static str, h: &Log2Histogram) {
        self.push_histogram(name, h, true);
    }

    fn push_histogram(&mut self, name: &'static str, h: &Log2Histogram, wall: bool) {
        self.entries.push(MetricEntry {
            name,
            value: MetricValue::Histogram(HistogramSnapshot {
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
                buckets: h.nonzero_buckets().map(|(i, c)| (i as u32, c)).collect(),
            }),
            wall,
        });
    }

    /// Appends `"name":value` JSON fields (comma-separated, no braces)
    /// for every entry — every *deterministic* entry when
    /// `deterministic_only` — in recording order. Gauges emit two fields:
    /// `name` and `name_hw`.
    pub fn write_json_fields(&self, out: &mut String, deterministic_only: bool) {
        use std::fmt::Write as _;
        let mut first = true;
        for e in &self.entries {
            if deterministic_only && e.wall {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"{}\":{}", e.name, v);
                }
                MetricValue::Gauge { value, high_water } => {
                    let _ = write!(out, "\"{0}\":{1},\"{0}_hw\":{2}", e.name, value, high_water);
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        e.name, h.count, h.sum, h.max
                    );
                    for (k, (i, c)) in h.buckets.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{i},{c}]");
                    }
                    out.push_str("]}");
                }
            }
        }
    }

    /// A copy containing only the deterministic (non-wall-clock) entries.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            entries: self.entries.iter().filter(|e| !e.wall).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);

        let mut g = Gauge::default();
        g.set(5);
        g.set(-3);
        assert_eq!(g.get(), -3);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Below 64 every value is its own bucket; from there on every
        // power of two opens a new bucket run of 32.
        for v in 0..64u64 {
            assert_eq!(Log2Histogram::bucket_index(v), v as usize);
        }
        for k in 6..64 {
            let i = Log2Histogram::bucket_index(1 << k);
            assert_eq!(i, 64 + (k - 6) * 32, "2^{k}");
            assert_eq!(Log2Histogram::bucket_bounds(i).0, 1 << k);
            assert_eq!(Log2Histogram::bucket_index((1 << k) - 1), i - 1);
        }
        assert_eq!(Log2Histogram::bucket_bounds(64), (64, 66));
        assert_eq!(Log2Histogram::bucket_bounds(96), (128, 132));
    }

    #[test]
    fn histogram_top_bucket_saturates() {
        let mut h = Log2Histogram::new();
        let (top_lo, top_hi) = Log2Histogram::bucket_bounds(BUCKETS - 1);
        assert_eq!(top_hi, u64::MAX);
        h.observe(top_lo);
        h.observe(u64::MAX);
        assert_eq!(h.bucket_count(BUCKETS - 1), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn histogram_aggregates_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!((h.min(), h.max()), (1, 1000));
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // The median 500 lies in bucket [496, 504) of the octave
        // [256, 512); the estimate is that bucket's last value.
        assert_eq!(h.quantile_upper_bound(0.5), 503);
        assert_eq!(h.quantile_upper_bound(0.05), 50);
        assert_eq!(h.quantile_upper_bound(1.0), 1000);
        assert_eq!(Log2Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.observe(3);
        b.observe(100);
        b.observe(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 103);
        assert_eq!((a.min(), a.max()), (0, 100));
        assert_eq!(a.bucket_count(0), 1);
        a.merge(&Log2Histogram::new());
        assert_eq!(a.min(), 0);
    }

    #[test]
    fn snapshot_renders_flat_json_fields() {
        let mut g = Gauge::default();
        g.set(4);
        g.set(2);
        let mut h = Log2Histogram::new();
        h.observe(5);
        let mut s = Snapshot::new();
        s.record_counter("events", 12);
        s.record_gauge("queue", g);
        s.record_histogram("depth", &h);
        let mut out = String::new();
        s.write_json_fields(&mut out, true);
        assert_eq!(
            out,
            "\"events\":12,\"queue\":2,\"queue_hw\":4,\
             \"depth\":{\"count\":1,\"sum\":5,\"max\":5,\"buckets\":[[5,1]]}"
        );
    }

    #[test]
    fn wall_entries_are_excluded_from_deterministic_renderings() {
        let mut h = Log2Histogram::new();
        h.observe(7);
        let mut s = Snapshot::new();
        s.record_counter("events", 1);
        s.record_wall_histogram("dispatch_ns", &h);
        let mut det = String::new();
        s.write_json_fields(&mut det, true);
        assert_eq!(det, "\"events\":1");
        let mut full = String::new();
        s.write_json_fields(&mut full, false);
        assert!(full.contains("dispatch_ns"));
        assert_eq!(s.deterministic().entries().len(), 1);
    }

    #[test]
    fn snapshot_quantile_equals_the_live_histograms() {
        // 99 × 1 plus one 1000: p99 falls in bucket 1 on both views.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(1000);
        let copy = |h: &Log2Histogram| {
            let mut s = Snapshot::new();
            s.record_histogram("x", h);
            match &s.entries()[0].value {
                MetricValue::Histogram(hs) => hs.clone(),
                other => panic!("not a histogram: {other:?}"),
            }
        };
        assert_eq!(copy(&h).quantile_upper_bound(0.99), 1);
        assert_eq!(copy(&h).quantile_upper_bound(1.0), 1000);
        // Random observations (xorshift, magnitudes spread over 40 bits).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..50 {
            let mut h = Log2Histogram::new();
            for _ in 0..=round * 7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.observe(x >> (24 + x % 40));
            }
            let snap = copy(&h);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(
                    snap.quantile_upper_bound(q),
                    h.quantile_upper_bound(q),
                    "q={q} round={round}"
                );
            }
        }
        assert_eq!(copy(&Log2Histogram::new()).quantile_upper_bound(0.5), 0);
    }
}
