//! Simulated time: instants and durations with microsecond resolution.
//!
//! ARTEMIS relies on *persistent timekeeping*: the notion of time must
//! survive power failures, because charging delays are exactly what the
//! timeliness properties (`MITD`, `maxDuration`, `period`) measure. The
//! simulator therefore maintains a single wall clock that advances both
//! while the device executes and while it is off charging; these types
//! are the currency of that clock.
//!
//! Microsecond resolution matches the granularity of the MSP430FR cost
//! model (1 MHz core clock: one cycle per microsecond) while still
//! covering > 500 000 years in a `u64`, so arithmetic never needs to
//! worry about wrap-around in practice. Overflow nevertheless saturates
//! rather than panics, in keeping with a runtime that must not crash.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of simulated time, stored as whole microseconds.
///
/// # Examples
///
/// ```
/// use artemis_core::time::SimDuration;
///
/// let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 1_500);
/// assert_eq!(format!("{d}"), "1.500ms");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds (saturating).
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Creates a duration from whole seconds (saturating).
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole minutes (saturating).
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m.saturating_mul(60_000_000))
    }

    /// Creates a duration from whole hours (saturating).
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h.saturating_mul(3_600_000_000))
    }

    /// Returns the duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `true` for the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at zero.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by an integer factor.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "inf")
        } else if us >= 60_000_000 && us.is_multiple_of(60_000_000) {
            write!(f, "{}min", us / 60_000_000)
        } else if us >= 1_000_000 {
            let whole = us / 1_000_000;
            let frac = us % 1_000_000;
            if frac == 0 {
                write!(f, "{whole}s")
            } else {
                write!(f, "{whole}.{:06}s", frac)
            }
        } else if us >= 1_000 {
            let whole = us / 1_000;
            let frac = us % 1_000;
            if frac == 0 {
                write!(f, "{whole}ms")
            } else {
                write!(f, "{whole}.{frac:03}ms")
            }
        } else {
            write!(f, "{us}us")
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A point on the simulated wall clock, measured from the first boot.
///
/// Instants are produced by the simulator's persistent clock and carried
/// on [`MonitorEvent`](crate::event::MonitorEvent)s so that monitors can
/// evaluate timeliness properties across power failures.
///
/// # Examples
///
/// ```
/// use artemis_core::time::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_secs(2);
/// assert_eq!(t1 - t0, SimDuration::from_secs(2));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The moment of first boot.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimInstant(us)
    }

    /// Returns microseconds elapsed since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`, clamping at zero if `earlier` is later.
    pub const fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_micros()))
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;

    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;

    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.as_micros()))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_mins(5).as_micros(), 300_000_000);
        assert_eq!(SimDuration::from_hours(1).as_micros(), 3_600_000_000);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let max = SimDuration::MAX;
        assert_eq!(max + SimDuration::from_secs(1), SimDuration::MAX);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_secs(1),
            SimDuration::ZERO
        );
        assert_eq!(max.saturating_mul(2), SimDuration::MAX);
    }

    #[test]
    fn instant_difference_clamps_at_zero() {
        let a = SimInstant::from_micros(100);
        let b = SimInstant::from_micros(400);
        assert_eq!(b - a, SimDuration::from_micros(300));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_natural_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_millis(100)), "100ms");
        assert_eq!(format!("{}", SimDuration::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3s");
        assert_eq!(format!("{}", SimDuration::from_mins(5)), "5min");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }

    #[test]
    fn instant_ordering_and_max() {
        let a = SimInstant::from_micros(1);
        let b = SimInstant::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
