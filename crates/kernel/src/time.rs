//! Simulated time.
//!
//! [`Time`] is an absolute instant, [`Duration`] a span; both are u64
//! **picoseconds**. The paper quotes latencies in nanoseconds and the
//! adaptive mechanism in cycles; we fix 1 cycle = 1 ns (a ~1 GHz coherence
//! controller clock), so helpers exist for ns, cycles and picoseconds.
//!
//! Picosecond resolution exists so that message transmission times at
//! arbitrary bandwidths (e.g. 8 bytes at 6400 MB/s = 1.25 ns) stay exact
//! integers and the simulation remains deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// An absolute instant in simulated time (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The start of simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs a `Time` from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Constructs a `Time` from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since simulation start (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        Duration(self.0 - earlier.0)
    }

    /// Saturating difference; returns [`Duration::ZERO`] if `earlier > self`.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a `Duration` from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Constructs a `Duration` from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }

    /// Constructs a `Duration` from controller cycles (1 cycle = 1 ns).
    pub const fn from_cycles(cycles: u64) -> Self {
        Duration(cycles * PS_PER_NS)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Controller cycles (1 cycle = 1 ns, truncating).
    pub const fn as_cycles(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Seconds as a float (for rate computations in reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The transmission time of `bytes` over a link of `mbps` megabytes per
    /// second, rounded up to the next picosecond.
    ///
    /// 1 MB/s = 10^6 bytes / 10^12 ps, so `time_ps = bytes * 10^6 / mbps`.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is zero.
    pub fn transmission(bytes: u64, mbps: u64) -> Duration {
        assert!(mbps > 0, "link bandwidth must be positive");
        // Every message the model sends keeps `bytes * 10^6` within a
        // u64, so the common case divides in 64 bits; only a size past
        // about 18 TB takes the (much slower) 128-bit divide.
        match bytes.checked_mul(1_000_000) {
            Some(num) => Duration(num.div_ceil(mbps)),
            None => {
                let num = bytes as u128 * 1_000_000u128;
                Duration(num.div_ceil(mbps as u128) as u64)
            }
        }
    }

    /// Multiplies the span by an integer factor (saturating).
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
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

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0 as f64 / PS_PER_NS as f64)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0 as f64 / PS_PER_NS as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_roundtrip() {
        let t = Time::from_ns(180);
        assert_eq!(t.as_ns(), 180);
        assert_eq!(t.as_ps(), 180_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ns(100) + Duration::from_ns(25);
        assert_eq!(t.as_ns(), 125);
        assert_eq!(t.since(Time::from_ns(100)), Duration::from_ns(25));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Time::from_ns(10);
        let late = Time::from_ns(20);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_ns(10));
    }

    #[test]
    fn transmission_times_match_paper_examples() {
        // 8-byte request at 1600 MB/s = 5 ns.
        assert_eq!(Duration::transmission(8, 1600), Duration::from_ns(5));
        // 72-byte data at 1600 MB/s = 45 ns.
        assert_eq!(Duration::transmission(72, 1600), Duration::from_ns(45));
        // 8 bytes at 6400 MB/s = 1.25 ns = 1250 ps.
        assert_eq!(Duration::transmission(8, 6400), Duration::from_ps(1250));
    }

    #[test]
    fn transmission_rounds_up() {
        // 7 bytes at 3 MB/s = 2_333_333.33.. ps, rounds to 2_333_334.
        assert_eq!(Duration::transmission(7, 3), Duration::from_ps(2_333_334));
    }

    /// The 64-bit divide rounds exactly as the 128-bit one, on both sides
    /// of the size where `bytes * 10^6` stops fitting a u64.
    #[test]
    fn transmission_matches_the_wide_divide_on_both_paths() {
        let wide = |bytes: u64, mbps: u64| {
            let ps = (u128::from(bytes) * 1_000_000).div_ceil(u128::from(mbps));
            Duration::from_ps(ps as u64)
        };
        let edge = u64::MAX / 1_000_000;
        let sizes = [0, 1, 7, 8, 72, 1 << 20, edge - 1, edge, edge + 1, u64::MAX];
        let rates = [1, 3, 100, 400, 1600, 6400, 999_983, u64::MAX];
        for bytes in sizes {
            for mbps in rates {
                assert_eq!(
                    Duration::transmission(bytes, mbps),
                    wide(bytes, mbps),
                    "{bytes} B at {mbps} MB/s"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn transmission_zero_bandwidth_panics() {
        let _ = Duration::transmission(8, 0);
    }

    #[test]
    fn cycles_are_nanoseconds() {
        assert_eq!(Duration::from_cycles(512), Duration::from_ns(512));
        assert_eq!(Duration::from_ns(512).as_cycles(), 512);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_ns(5).to_string(), "5ns");
        assert_eq!(Duration::from_ps(1250).to_string(), "1.25ns");
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_ns(n)).sum();
        assert_eq!(total, Duration::from_ns(6));
    }
}
