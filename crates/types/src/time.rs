//! Simulated time.
//!
//! All layers of the stack share one clock: microseconds since the start of
//! the simulated epoch. A 4-week trace is ~2.4e12 µs, comfortably inside
//! `u64`. [`Time`] is a point, [`Duration`] a difference; both are simple
//! newtypes so that raw integers cannot be mixed up with each other or with
//! byte counts.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Duration(pub u64);

impl Duration {
    pub const ZERO: Duration = Duration(0);
    pub const MICROSECOND: Duration = Duration(1);
    pub const MILLISECOND: Duration = Duration(1_000);
    pub const SECOND: Duration = Duration(1_000_000);
    pub const MINUTE: Duration = Duration(60 * 1_000_000);
    pub const HOUR: Duration = Duration(3_600 * 1_000_000);
    pub const DAY: Duration = Duration(86_400 * 1_000_000);
    pub const WEEK: Duration = Duration(7 * 86_400 * 1_000_000);

    #[must_use]
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e6).round() as u64)
    }

    #[must_use]
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60 * 1_000_000)
    }

    #[must_use]
    pub const fn from_hours(h: u64) -> Self {
        Duration(h * 3_600 * 1_000_000)
    }

    #[must_use]
    pub const fn from_days(d: u64) -> Self {
        Duration(d * 86_400 * 1_000_000)
    }

    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[must_use]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    #[must_use]
    pub fn min(self, rhs: Duration) -> Duration {
        Duration(self.0.min(rhs.0))
    }

    #[must_use]
    pub fn max(self, rhs: Duration) -> Duration {
        Duration(self.0.max(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000 {
            write!(f, "{us}us")
        } else if us < 1_000_000 {
            write!(f, "{:.1}ms", us as f64 / 1e3)
        } else if us < 60_000_000 {
            write!(f, "{:.1}s", us as f64 / 1e6)
        } else if us < 3_600_000_000 {
            write!(f, "{:.1}min", us as f64 / 6e7)
        } else if us < 86_400_000_000 {
            write!(f, "{:.1}h", us as f64 / 3.6e9)
        } else {
            write!(f, "{:.1}d", us as f64 / 8.64e10)
        }
    }
}

/// A point in simulated time: microseconds since the simulation epoch.
///
/// The epoch is interpreted as **midnight on a Monday** so that hour-of-day
/// and day-of-week arithmetic (diurnal availability models, weekend effects)
/// is well defined.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Time(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);

    #[must_use]
    pub fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// The instant `s` whole seconds after the epoch.
    #[must_use]
    pub fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant. Panics (in debug) if `earlier`
    /// is actually later.
    #[must_use]
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(
            self >= earlier,
            "time went backwards: {self:?} < {earlier:?}"
        );
        Duration(self.0 - earlier.0)
    }

    /// Duration since an earlier instant, clamping to zero instead of
    /// panicking.
    #[must_use]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Hour of day in `[0, 24)`, assuming the epoch is midnight.
    #[must_use]
    pub fn hour_of_day(self) -> u32 {
        ((self.0 / Duration::HOUR.0) % 24) as u32
    }

    /// Day of week in `[0, 7)` with 0 = Monday (epoch convention).
    #[must_use]
    pub fn day_of_week(self) -> u32 {
        ((self.0 / Duration::DAY.0) % 7) as u32
    }

    /// Whole hours elapsed since the epoch (used as bandwidth bucket index).
    #[must_use]
    pub fn hours_since_epoch(self) -> u64 {
        self.0 / Duration::HOUR.0
    }

    /// Microseconds into the current day.
    #[must_use]
    pub fn micros_into_day(self) -> u64 {
        self.0 % Duration::DAY.0
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const DAYS: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let day = self.0 / Duration::DAY.0;
        let rest = self.0 % Duration::DAY.0;
        let h = rest / Duration::HOUR.0;
        let m = (rest % Duration::HOUR.0) / Duration::MINUTE.0;
        let s = (rest % Duration::MINUTE.0) / Duration::SECOND.0;
        write!(
            f,
            "d{day}({}) {h:02}:{m:02}:{s:02}",
            DAYS[(day % 7) as usize]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::SECOND);
        assert_eq!(Duration::from_mins(60), Duration::HOUR);
        assert_eq!(Duration::from_hours(24), Duration::DAY);
        assert_eq!(Duration::from_days(7), Duration::WEEK);
        assert_eq!(Duration::from_millis(1500).as_micros(), 1_500_000);
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Time::from_secs(90), Time::ZERO + Duration::from_secs(90));
    }

    #[test]
    fn hour_and_day_arithmetic() {
        let t = Time::ZERO + Duration::from_days(2) + Duration::from_hours(13);
        assert_eq!(t.hour_of_day(), 13);
        assert_eq!(t.day_of_week(), 2); // Wednesday
        assert_eq!(t.hours_since_epoch(), 61);
        let sunday = Time::ZERO + Duration::from_days(6);
        assert_eq!(sunday.day_of_week(), 6);
        let next_monday = Time::ZERO + Duration::from_days(7);
        assert_eq!(next_monday.day_of_week(), 0);
    }

    #[test]
    fn since_and_saturating() {
        let a = Time(100);
        let b = Time(250);
        assert_eq!(b.since(a), Duration(150));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration(500).to_string(), "500us");
        assert_eq!(Duration::from_secs(90).to_string(), "1.5min");
        assert_eq!(Duration::from_hours(36).to_string(), "1.5d");
        let t = Time::ZERO + Duration::from_days(1) + Duration::from_hours(8);
        assert_eq!(t.to_string(), "d1(Tue) 08:00:00");
    }

    #[test]
    fn four_weeks_fit() {
        let end = Time::ZERO + Duration::WEEK * 4;
        assert_eq!(end.hours_since_epoch(), 672);
    }
}
