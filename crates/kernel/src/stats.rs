//! Statistics primitives used throughout the simulator.
//!
//! * [`RunningStat`] — Welford mean/variance of a stream of samples;
//! * [`BusyTracker`] — busy-time integral of a resource (link, DRAM port),
//!   supporting windowed queries for the adaptive mechanism and whole-run
//!   utilization numbers for Figure 6.

use crate::time::{Duration, Time};

/// Welford online mean / variance over f64 samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Tracks the busy-time integral of a serially reusable resource.
///
/// The resource is busy over `[busy_from, busy_until)`; extending busy time
/// while already busy coalesces the interval; a disjoint interval closes out
/// the previous one. Used for end-of-run utilization (Figure 6) and — via
/// [`WindowDelta`] — for the adaptive mechanism's sampling windows.
///
/// # Query contract
///
/// `busy_time_until(t)` is exact when `t` is at or after the start of the
/// most recent busy interval (in a simulation: when new busy intervals only
/// ever start at the current simulated time, querying at the current time is
/// always exact, even while a transmission is still in progress). Queries
/// about instants *before* an already-closed-out interval are not supported;
/// take deltas of monotone queries instead ([`WindowDelta`] does this).
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    /// Busy time fully accounted before `busy_from`.
    accumulated: Duration,
    /// Start of the current (possibly in-progress) busy interval.
    busy_from: Time,
    /// End of the current busy interval (`<= busy_from` means idle).
    busy_until: Time,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the resource busy for `[from, until)`. `from` must be
    /// non-decreasing across calls and `until > from`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if intervals are supplied out of order.
    pub fn mark_busy(&mut self, from: Time, until: Time) {
        debug_assert!(until > from);
        if from <= self.busy_until {
            // Contiguous or overlapping: extend the current interval.
            debug_assert!(from >= self.busy_from);
            if until > self.busy_until {
                self.busy_until = until;
            }
        } else {
            // Disjoint: close out the previous interval.
            self.accumulated += self.busy_until.since(self.busy_from);
            self.busy_from = from;
            self.busy_until = until;
        }
    }

    /// The instant the resource becomes free (now or in the past if idle).
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Cumulative busy time in `[0, t)`. See the type-level query contract.
    pub fn busy_time_until(&self, t: Time) -> Duration {
        let current = if t <= self.busy_from {
            Duration::ZERO
        } else if t >= self.busy_until {
            self.busy_until.since(self.busy_from)
        } else {
            t.since(self.busy_from)
        };
        self.accumulated + current
    }

    /// Utilization over `[0, t)` in `[0, 1]`. Returns 0 at `t = 0`.
    pub fn utilization(&self, t: Time) -> f64 {
        if t == Time::ZERO {
            return 0.0;
        }
        self.busy_time_until(t).as_ps() as f64 / t.as_ps() as f64
    }
}

/// Converts monotone cumulative busy-time readings into per-window deltas.
///
/// The adaptive mechanism samples each node's link every 512 cycles; at each
/// tick it asks "how much of the last window was the link busy?". Taking a
/// delta of two *current-time* cumulative readings is exact, whereas asking
/// the tracker about a past instant is not (see [`BusyTracker`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowDelta {
    prev: Duration,
}

impl WindowDelta {
    /// Creates a delta tracker with no prior reading.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns busy time since the previous call, given the tracker and the
    /// current simulated time (must be non-decreasing across calls).
    pub fn advance(&mut self, tracker: &BusyTracker, now: Time) -> Duration {
        let cum = tracker.busy_time_until(now);
        let delta = cum - self.prev;
        self.prev = cum;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn running_stat_mean_stddev() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stat_empty() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn busy_tracker_accumulates_disjoint() {
        let mut b = BusyTracker::new();
        b.mark_busy(Time::from_ns(10), Time::from_ns(20));
        // Mid-interval query before any close-out is exact.
        assert_eq!(b.busy_time_until(Time::from_ns(15)), Duration::from_ns(5));
        b.mark_busy(Time::from_ns(30), Time::from_ns(35));
        assert_eq!(b.busy_time_until(Time::from_ns(100)), Duration::from_ns(15));
        assert_eq!(b.busy_time_until(Time::from_ns(32)), Duration::from_ns(12));
    }

    #[test]
    fn window_delta_splits_busy_time_exactly() {
        let mut b = BusyTracker::new();
        let mut w = WindowDelta::new();
        b.mark_busy(Time::from_ns(0), Time::from_ns(100));
        // Sample at t=64: 64 ns busy so far (transmission still in progress).
        assert_eq!(w.advance(&b, Time::from_ns(64)), Duration::from_ns(64));
        b.mark_busy(Time::from_ns(100), Time::from_ns(110));
        b.mark_busy(Time::from_ns(120), Time::from_ns(124));
        // Sample at t=128: rest of the first interval (36) + 10 + 4.
        assert_eq!(w.advance(&b, Time::from_ns(128)), Duration::from_ns(50));
        // Idle window.
        assert_eq!(w.advance(&b, Time::from_ns(192)), Duration::ZERO);
    }

    #[test]
    fn busy_tracker_coalesces_contiguous() {
        let mut b = BusyTracker::new();
        b.mark_busy(Time::from_ns(0), Time::from_ns(10));
        b.mark_busy(Time::from_ns(10), Time::from_ns(25));
        // Queued arrival extends while still busy.
        b.mark_busy(Time::from_ns(5), Time::from_ns(30));
        assert_eq!(b.busy_time_until(Time::from_ns(30)), Duration::from_ns(30));
        assert!((b.utilization(Time::from_ns(60)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_at_zero_is_zero() {
        let b = BusyTracker::new();
        assert_eq!(b.utilization(Time::ZERO), 0.0);
    }

    proptest! {
        /// Sampling with WindowDelta at arbitrary monotone instants recovers
        /// the exact total busy time, and matches a brute-force computation
        /// from the merged interval set.
        #[test]
        fn prop_window_deltas_sum_to_total(
            intervals in proptest::collection::vec((0u64..100, 1u64..50), 1..40),
            ticks in proptest::collection::vec(1u64..200, 1..20),
        ) {
            let mut b = BusyTracker::new();
            let mut w = WindowDelta::new();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            let mut cursor = 0u64;
            let mut sampled = Duration::ZERO;
            let mut tick_iter = ticks.iter().copied().scan(0u64, |acc, d| {
                *acc += d;
                Some(*acc)
            });
            let mut next_tick = tick_iter.next();
            for (gap, len) in intervals {
                let from = cursor + gap;
                // Sample at every tick that falls before this mark's start
                // (marks begin at the current simulated time).
                while let Some(t) = next_tick {
                    if t > from { break; }
                    sampled += w.advance(&b, Time::from_ns(t));
                    next_tick = tick_iter.next();
                }
                b.mark_busy(Time::from_ns(from), Time::from_ns(from + len));
                match merged.last_mut() {
                    Some((_, e)) if from <= *e => *e = (*e).max(from + len),
                    _ => merged.push((from, from + len)),
                }
                cursor = from;
            }
            let horizon = merged.last().map(|&(_, e)| e).unwrap_or(0) + 1;
            sampled += w.advance(&b, Time::from_ns(horizon));
            let brute: u64 = merged.iter().map(|&(s, e)| e - s).sum();
            prop_assert_eq!(sampled.as_ns(), brute);
        }
    }
}
