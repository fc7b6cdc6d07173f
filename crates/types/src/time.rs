//! Virtual time.
//!
//! The simulator and the analytic model both reason about time as integer
//! milliseconds since the start of the trace. A newtype pair —
//! [`Timestamp`] (a point) and [`Duration`] (a span) — keeps points and
//! spans from being confused (C-NEWTYPE). The paper quotes all timeouts in
//! seconds; millisecond resolution lets the live stack reuse the same types
//! without losing sub-second precision.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in milliseconds since the trace origin.
///
/// # Examples
///
/// ```
/// use vl_types::{Duration, Timestamp};
/// let t = Timestamp::from_secs(10);
/// assert_eq!(t + Duration::from_secs(5), Timestamp::from_secs(15));
/// assert_eq!(t.saturating_sub(Timestamp::from_secs(4)), Duration::from_secs(6));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(u64);

/// A span of virtual time, in milliseconds.
///
/// # Examples
///
/// ```
/// use vl_types::Duration;
/// assert_eq!(Duration::from_secs(2).as_millis(), 2000);
/// assert!(Duration::from_secs(1) < Duration::from_secs(2));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Timestamp {
    /// The origin of virtual time.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The greatest representable instant; used as "never expires".
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from whole milliseconds since the origin.
    pub const fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms)
    }

    /// Creates a timestamp from whole seconds since the origin.
    ///
    /// # Panics
    ///
    /// Panics if `secs * 1000` overflows `u64`.
    pub const fn from_secs(secs: u64) -> Timestamp {
        Timestamp(secs * 1000)
    }

    /// Milliseconds since the origin.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the origin (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since the origin as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub const fn saturating_sub(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a span, saturating at [`Timestamp::MAX`]. Useful when
    /// computing lease expiries near "never".
    #[must_use]
    pub const fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// A source of "now" in protocol time.
///
/// The live stack implements it over wall time (`vl-server`'s
/// `WallClock`). The sans-io state machines take `now` as an argument
/// instead, so the simulator and the fault harness drive them on
/// virtual time with no clock at all.
pub trait Clock {
    /// Returns the current instant.
    fn now(&self) -> Timestamp;
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The greatest representable span; used as "infinite timeout" (the
    /// paper's `Delay(t_v, t, ∞)` configuration).
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }

    /// Creates a span from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs * 1000` overflows `u64`.
    pub const fn from_secs(secs: u64) -> Duration {
        Duration(secs * 1000)
    }

    /// Creates a span from fractional seconds, rounding to milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large for `u64` millis.
    pub fn from_secs_f64(secs: f64) -> Duration {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs * 1000.0 <= u64::MAX as f64,
            "duration seconds out of range: {secs}"
        );
        Duration((secs * 1000.0).round() as u64)
    }

    /// Whole milliseconds in this span.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds in this span (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds as a float, for rate arithmetic in the analytic model.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns `true` if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this span is the "infinite" sentinel.
    pub const fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Multiplies the span by an integer factor, saturating.
    #[must_use]
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Adds two spans, saturating at the infinite sentinel — the
    /// `t + ε` write-delay bound of self-invalidation stays `∞` when
    /// either side is.
    #[must_use]
    pub const fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Returns the smaller of two spans — the `min(t, t_v)` bound on a
    /// server's write delay (Table 1).
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Converts to a [`std::time::Duration`] (for sleeps and socket
    /// timeouts in live drivers).
    pub const fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_millis(self.0)
    }

    /// Converts from a [`std::time::Duration`], truncating to whole
    /// milliseconds (protocol resolution).
    pub const fn from_std(d: std::time::Duration) -> Duration {
        Duration(d.as_millis() as u64)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Duration {
        Duration::from_std(d)
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> std::time::Duration {
        d.to_std()
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    /// # Panics
    ///
    /// Panics on overflow; use [`Timestamp::saturating_add`] for lease
    /// expiries that may be "never".
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(
            self.0
                .checked_add(rhs.0)
                .expect("timestamp overflow: use saturating_add for infinite leases"),
        )
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Add for Duration {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics on overflow.
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Timestamp {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_sub`] when that is expected.
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("timestamp subtraction underflow"),
        )
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Timestamp::MAX {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Timestamp::from_secs(3).as_millis(), 3000);
        assert_eq!(Timestamp::from_millis(1500).as_secs(), 1);
        assert_eq!(Duration::from_secs(2).as_secs(), 2);
        assert_eq!(Duration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(4);
        assert_eq!(t + d, Timestamp::from_secs(14));
        assert_eq!(Timestamp::from_secs(14) - t, d);
        assert_eq!(t.saturating_sub(Timestamp::from_secs(20)), Duration::ZERO);
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_secs(1)),
            Timestamp::MAX
        );
    }

    #[test]
    fn min_max() {
        let a = Duration::from_secs(10);
        let b = Duration::from_secs(100);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = Timestamp::from_secs(1);
        let y = Timestamp::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn infinite_duration_sentinel() {
        assert!(Duration::MAX.is_infinite());
        assert!(!Duration::from_secs(1).is_infinite());
        assert!(Duration::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Timestamp::from_secs(1) - Timestamp::from_secs(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_secs_f64_rejects_negative() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_millis(1500).to_string(), "t=1.500s");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Duration::MAX.to_string(), "∞");
        assert_eq!(Timestamp::MAX.to_string(), "t=∞");
    }

    #[test]
    fn std_conversions_roundtrip() {
        use std::time::Duration as StdDuration;
        assert_eq!(
            Duration::from_millis(1500).to_std(),
            StdDuration::from_millis(1500)
        );
        assert_eq!(
            Duration::from_std(StdDuration::from_millis(250)),
            Duration::from_millis(250)
        );
        assert_eq!(Duration::from(StdDuration::from_secs(2)).as_secs(), 2);
        assert_eq!(
            StdDuration::from(Duration::from_secs(3)),
            StdDuration::from_secs(3)
        );
        // Sub-millisecond precision truncates (protocol resolution).
        assert_eq!(
            Duration::from_std(StdDuration::from_micros(1700)),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(
            Duration::from_secs(2).saturating_mul(3),
            Duration::from_secs(6)
        );
        assert!(Duration::MAX.saturating_mul(2).is_infinite());
    }
}
