//! The linear feedback shift register behind the unicast draw.
//!
//! The paper: "Pseudo-random numbers can be generated easily by a linear
//! feedback shift register" (citing Golomb). This is a Galois-form LFSR
//! with maximal-period taps: the 16-bit register cycles through all 65535
//! non-zero states.

/// A 16-bit maximal-period Galois LFSR (taps x^16 + x^14 + x^13 + x^11 + 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr16 {
    state: u16,
}

impl Lfsr16 {
    /// Creates an LFSR; a zero seed (the lock-up state) is mapped to 1.
    pub fn new(seed: u16) -> Self {
        Lfsr16 {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advances one step and returns the new 16-bit state (never zero).
    pub fn next_value(&mut self) -> u16 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= 0xB400; // taps 16,14,13,11
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr16_has_maximal_period() {
        let mut l = Lfsr16::new(0xACE1);
        let start = l;
        let mut count = 0u32;
        loop {
            l.next_value();
            count += 1;
            if l == start {
                break;
            }
            assert!(count <= 65535, "period exceeds 2^16-1");
        }
        assert_eq!(count, 65535);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut l = Lfsr16::new(0);
        assert_ne!(l.next_value(), 0);
    }
}
