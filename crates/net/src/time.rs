//! Virtual time: absolute instants and durations in microseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant of virtual time (microseconds since simulation
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// Builds an instant from microseconds since the epoch.
    pub fn from_micros(us: u64) -> Time {
        Time(us)
    }

    /// Builds an instant from milliseconds since the epoch.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1000)
    }

    /// Builds an instant from seconds since the epoch.
    pub fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch.
    pub fn as_millis(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics when `earlier` is later than `self`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: monotonic clock invariant"
    )]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1000)
    }

    /// Builds a duration from seconds.
    pub fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// The duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1000
    }

    /// The duration in seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, d: Duration) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl Sub for Time {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics when subtracting a later time from an earlier one.
    fn sub(self, other: Time) -> Duration {
        self.since(other)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Time::from_millis(5).as_micros(), 5000);
        assert_eq!(Time::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_millis(1500).as_micros(), 1_500_000);
        assert!((Time::from_millis(500).as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - Time::from_millis(10)).as_millis(), 5);
        let mut d = Duration::from_micros(3);
        d += Duration::from_micros(4);
        assert_eq!(d.as_micros(), 7);
    }

    #[test]
    fn ordering() {
        assert!(Time::ZERO < Time::from_micros(1));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_duration_panics() {
        let _ = Time::ZERO - Time::from_micros(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(Duration::from_micros(250).to_string(), "0.000250s");
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(Duration::from_secs(1).saturating_mul(5), Duration::from_secs(5));
        assert_eq!(
            Duration::from_micros(u64::MAX).saturating_mul(2).as_micros(),
            u64::MAX
        );
    }
}
