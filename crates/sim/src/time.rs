//! Simulated time.
//!
//! The kernel measures time as nanoseconds since simulation start. Instants
//! are represented by [`SimTime`]; spans reuse [`std::time::Duration`], which
//! keeps protocol code looking like ordinary Rust networking code.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulated clock, measured from simulation start.
///
/// `SimTime` is a transparent wrapper over nanoseconds. It is totally
/// ordered, cheap to copy, and supports arithmetic with
/// [`std::time::Duration`]:
///
/// ```
/// use gocast_sim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(250);
/// assert_eq!(t.as_secs_f64(), 0.25);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant. Useful as a sentinel for
    /// "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds `d`, saturating at [`SimTime::MAX`] instead of overflowing.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_to_nanos(d)))
    }
}

/// Converts a `Duration` to simulated nanoseconds, saturating at `u64::MAX`.
fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(duration_to_nanos(rhs))
                .expect("SimTime overflow"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_nanos(1_000_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10);
        let later = t + Duration::from_millis(123);
        assert_eq!(later - t, Duration::from_millis(123));
        assert_eq!(later.saturating_since(t), Duration::from_millis(123));
        assert_eq!(t.saturating_since(later), Duration::ZERO);
    }

    #[test]
    fn ordering_follows_nanos() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
