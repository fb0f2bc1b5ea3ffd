//! The unsigned saturating policy counter (paper §2.2).
//!
//! The policy counter averages the per-window utilization verdicts: it is
//! incremented when the window was above the threshold and decremented
//! otherwise, saturating at `[0, 2^bits - 1]`. A larger value corresponds to
//! a lower probability of broadcast. With the paper's 8-bit counter and
//! 512-cycle sampling interval, the mechanism can swing across its full
//! range in 512 × 255 ≈ 130 000 cycles.

/// An unsigned saturating counter of configurable width (the paper uses 8
/// bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCounter {
    value: u32,
    max: u32,
}

impl PolicyCounter {
    /// Creates a counter of `bits` width, starting at zero (always
    /// broadcast — the snooping end of the spectrum).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "width must be 1..=16 bits");
        PolicyCounter {
            value: 0,
            max: (1u32 << bits) - 1,
        }
    }

    /// Creates a counter starting at an explicit value (clamped to range).
    pub fn with_value(bits: u32, value: u32) -> Self {
        let mut c = Self::new(bits);
        c.value = value.min(c.max);
        c
    }

    /// Current value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Saturating increment (utilization above threshold ⇒ lean unicast).
    pub fn bump_up(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement (utilization below threshold ⇒ lean broadcast).
    pub fn bump_down(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// The probability of unicast this counter value encodes, in `[0, 1]`:
    /// `value / (max + 1)`.
    pub fn unicast_probability(&self) -> f64 {
        self.value as f64 / (self.max as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_saturates() {
        let mut c = PolicyCounter::new(8);
        assert_eq!(c.value(), 0);
        c.bump_down();
        assert_eq!(c.value(), 0, "saturates at zero");
        for _ in 0..300 {
            c.bump_up();
        }
        assert_eq!(c.value(), 255, "saturates at 2^8-1");
        c.bump_up();
        assert_eq!(c.value(), 255);
    }

    #[test]
    fn paper_probability_example() {
        // "an 8-bit policy counter with the value of 100 implies that a
        // request should be unicast with probability of 100/255 or 39%"
        // (we use /256; the difference is < 0.2%).
        let c = PolicyCounter::with_value(8, 100);
        assert!((c.unicast_probability() - 0.390625).abs() < 1e-9);
    }

    #[test]
    fn with_value_clamps() {
        let c = PolicyCounter::with_value(4, 999);
        assert_eq!(c.value(), 15);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        PolicyCounter::new(0);
    }
}
