//! Simulation time.
//!
//! All simulation timestamps are integer nanoseconds wrapped in [`SimTime`].
//! Using integers (rather than `f64`, as some simulators do) makes event
//! ordering total and exact, which in turn makes every replay of a run —
//! straight through, checkpoint-restored or streamed — bit-identical.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since the start of the run.
///
/// `SimTime` is also used for durations; the arithmetic operators saturate
/// on underflow rather than panicking so that metric code can subtract
/// timestamps without pre-checking ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the beginning of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never" / run-forever bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One nanosecond.
    pub const fn nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// `us` microseconds.
    pub const fn micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// `ms` milliseconds.
    pub const fn millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction; `a.saturating_sub(b) == ZERO` when `b > a`.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::micros(1), SimTime::nanos(1_000));
        assert_eq!(SimTime::millis(1), SimTime::micros(1_000));
        assert_eq!(SimTime::millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = vec![SimTime(5), SimTime(1), SimTime(3)];
        ts.sort();
        assert_eq!(ts, vec![SimTime(1), SimTime(3), SimTime(5)]);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(SimTime(3) - SimTime(10), SimTime::ZERO);
        assert_eq!(SimTime(10).saturating_sub(SimTime(3)), SimTime(7));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(SimTime(2) + SimTime(3), SimTime(5));
        assert_eq!(SimTime(6) / 2, SimTime(3));
        assert_eq!(SimTime(6) * 2, SimTime(12));
        let mut t = SimTime(1);
        t += SimTime(2);
        assert_eq!(t, SimTime(3));
        t -= SimTime(5);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime(12).to_string(), "12ns");
        assert_eq!(SimTime::micros(2).to_string(), "2.000us");
        assert_eq!(SimTime::millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime(1), SimTime(2), SimTime(3)].into_iter().sum();
        assert_eq!(total, SimTime(6));
    }

    #[test]
    fn conversions_to_float() {
        assert_eq!(SimTime::micros(1).as_micros_f64(), 1.0);
        assert_eq!(SimTime::millis(1).as_millis_f64(), 1.0);
    }
}
