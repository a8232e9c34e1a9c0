//! Simulated time.
//!
//! All simulators in `nvfs` are trace-driven and use a single global clock
//! with microsecond resolution. [`SimTime`] is an instant on that clock and
//! [`SimDuration`] a span between instants. Both are thin wrappers over `u64`
//! microsecond counts so they are `Copy`, totally ordered, and cheap to hash.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds in one second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant of simulated time, measured in microseconds since the start of
/// a trace.
///
/// # Examples
///
/// ```
/// use nvfs_types::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
/// assert_eq!(t.as_micros(), 10_500_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the trace.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant, useful as an "infinitely far in the
    /// future" sentinel for the omniscient replacement policy.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from a millisecond count.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from a second count.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from a minute count.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime::from_secs(mins * 60)
    }

    /// Creates an instant from an hour count.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime::from_secs(hours * 3600)
    }

    /// Returns the microsecond count since the start of the trace.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the (truncated) whole seconds since the start of the trace.
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the fractional seconds since the start of the trace.
    fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (never wraps past [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    /// Saturating: never goes below [`SimTime::ZERO`].
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use nvfs_types::SimDuration;
///
/// let d = SimDuration::from_secs(30);
/// assert_eq!(d.as_secs_f64(), 30.0);
/// assert!(d > SimDuration::from_millis(29_999));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from a millisecond count.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from a second count.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from a minute count.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration::from_secs(mins * 60)
    }

    /// Creates a duration from an hour count.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3600)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Returns the microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the fractional second count.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Sprite's delayed write-back age: dirty data older than this is flushed
/// from a volatile cache (§2.1 of the paper).
pub const DELAYED_WRITE_BACK: SimDuration = SimDuration::from_secs(30);

/// Period at which Sprite's block cleaner scans for old dirty blocks (§2.1).
pub const BLOCK_CLEANER_PERIOD: SimDuration = SimDuration::from_secs(5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_mins(2).as_secs(), 120);
        assert_eq!(SimTime::from_hours(1).as_secs(), 3600);
        assert_eq!(SimDuration::from_millis(1500).as_micros(), 1_500_000);
        assert_eq!(SimDuration::from_hours(2).as_micros(), 7_200_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        // Subtraction saturates rather than wrapping.
        assert_eq!(t0 - t1, SimDuration::ZERO);
        assert_eq!(t1.since(t0), SimDuration::from_secs(5));
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn duration_from_secs_f64() {
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_from_negative_secs_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn policy_constants_match_paper() {
        assert_eq!(DELAYED_WRITE_BACK, SimDuration::from_secs(30));
        assert_eq!(BLOCK_CLEANER_PERIOD, SimDuration::from_secs(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_micros(1) > SimDuration::ZERO);
    }
}
