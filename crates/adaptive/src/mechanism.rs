//! The complete adaptive pipeline: utilization sampling → policy counter →
//! probabilistic broadcast/unicast decision.

use crate::lfsr::Lfsr16;
use crate::policy::PolicyCounter;
use crate::util_counter::UtilizationCounter;

/// The outcome of a per-request decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cast {
    /// Send the request to all nodes (snooping behaviour).
    Broadcast,
    /// Send the request to the home node only (directory behaviour; in the
    /// BASH protocol this is realized as a dualcast {home, requestor}).
    Unicast,
}

/// How decisions are made. The static modes exist for ablation studies
/// (they reduce BASH to always-snooping / always-directory request policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionMode {
    /// The paper's adaptive mechanism.
    #[default]
    Adaptive,
    /// Ignore the policy counter; always broadcast.
    AlwaysBroadcast,
    /// Ignore the policy counter; always unicast.
    AlwaysUnicast,
}

/// Configuration of the adaptive mechanism. The defaults are the values the
/// paper selected through experimentation (§2.2): 75 % threshold, 512-cycle
/// sampling interval, 8-bit policy counter.
#[derive(Debug, Clone)]
pub struct AdaptorConfig {
    /// Target link-utilization threshold in percent (Figure 7 sweeps 55/75/95).
    pub threshold_percent: u32,
    /// Sampling interval in cycles (1 cycle = 1 ns).
    pub sampling_interval_cycles: u64,
    /// Policy counter width in bits.
    pub policy_bits: u32,
    /// Initial policy value (0 = start fully broadcasting).
    pub initial_policy: u32,
    /// Decision mode (adaptive, or a static extreme for ablations).
    pub mode: DecisionMode,
}

impl AdaptorConfig {
    /// The paper's parameters: 75 % / 512 cycles / 8 bits, starting fully
    /// broadcast, adaptive.
    pub fn paper_default() -> Self {
        AdaptorConfig {
            threshold_percent: 75,
            sampling_interval_cycles: 512,
            policy_bits: 8,
            initial_policy: 0,
            mode: DecisionMode::Adaptive,
        }
    }

    /// Checks the ranges the counters rely on; the error names the first
    /// rule broken.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(1..=16).contains(&self.policy_bits) {
            Err("policy counter width must be 1..=16 bits")
        } else if !(1..100).contains(&self.threshold_percent) {
            Err("utilization threshold must be in (0, 100) percent")
        } else if self.sampling_interval_cycles == 0 {
            Err("sampling interval must be at least 1 cycle")
        } else {
            Ok(())
        }
    }
}

impl Default for AdaptorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-node adaptive mechanism: feed it one [`sample_window`] per sampling
/// interval and ask [`decide`] for each outgoing request.
///
/// [`sample_window`]: BandwidthAdaptor::sample_window
/// [`decide`]: BandwidthAdaptor::decide
#[derive(Debug, Clone)]
pub struct BandwidthAdaptor {
    util: UtilizationCounter,
    policy: PolicyCounter,
    lfsr: Lfsr16,
    mask: u16,
    mode: DecisionMode,
    interval_cycles: u64,
    samples: u64,
}

impl BandwidthAdaptor {
    /// Builds the mechanism for one node from a shared configuration.
    /// `node_seed` perturbs the LFSR so nodes do not make lock-step
    /// decisions.
    pub fn new(cfg: &AdaptorConfig, node_seed: u64) -> Self {
        let seed = (node_seed as u16).wrapping_mul(0x9E37) ^ 0xACE1;
        BandwidthAdaptor {
            util: UtilizationCounter::for_threshold_percent(cfg.threshold_percent),
            policy: PolicyCounter::with_value(cfg.policy_bits, cfg.initial_policy),
            lfsr: Lfsr16::new(seed),
            mask: ((1u32 << cfg.policy_bits) - 1) as u16,
            mode: cfg.mode,
            interval_cycles: cfg.sampling_interval_cycles,
            samples: 0,
        }
    }

    /// The sampling interval in cycles (the driver schedules one
    /// [`sample_window`](Self::sample_window) call per interval).
    pub fn sampling_interval_cycles(&self) -> u64 {
        self.interval_cycles
    }

    /// Feeds one sampling window: the link was busy `busy` out of `window`
    /// time units (any unit — the threshold comparison is scale-invariant).
    /// Bumps the policy counter by the sign of the utilization counter and
    /// resets it, exactly as the hardware would.
    pub fn sample_window(&mut self, busy: u64, window: u64) {
        self.samples += 1;
        if self.util.above_threshold(busy, window) {
            self.policy.bump_up();
        } else {
            self.policy.bump_down();
        }
    }

    /// Decides whether the next request is broadcast or unicast. The LFSR
    /// draw and comparison happen off the critical path in hardware; here it
    /// is just a counter compare.
    pub fn decide(&mut self) -> Cast {
        match self.mode {
            DecisionMode::AlwaysBroadcast => Cast::Broadcast,
            DecisionMode::AlwaysUnicast => Cast::Unicast,
            DecisionMode::Adaptive => {
                let r = self.lfsr.next_value() & self.mask;
                if (r as u32) < self.policy.value() {
                    Cast::Unicast
                } else {
                    Cast::Broadcast
                }
            }
        }
    }

    /// Current policy counter value (0 ⇒ always broadcast).
    pub fn policy_value(&self) -> u32 {
        self.policy.value()
    }

    /// The unicast probability the current policy encodes.
    pub fn unicast_probability(&self) -> f64 {
        match self.mode {
            DecisionMode::AlwaysBroadcast => 0.0,
            DecisionMode::AlwaysUnicast => 1.0,
            DecisionMode::Adaptive => self.policy.unicast_probability(),
        }
    }

    /// The utilization threshold in `[0, 1]`.
    pub fn threshold(&self) -> f64 {
        self.util.threshold()
    }

    /// Number of windows sampled.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn adaptor() -> BandwidthAdaptor {
        BandwidthAdaptor::new(&AdaptorConfig::paper_default(), 0)
    }

    #[test]
    fn starts_broadcasting() {
        let mut a = adaptor();
        assert_eq!(a.policy_value(), 0);
        for _ in 0..100 {
            assert_eq!(a.decide(), Cast::Broadcast);
        }
    }

    #[test]
    fn saturated_link_converges_to_unicast() {
        let mut a = adaptor();
        for _ in 0..255 {
            a.sample_window(512, 512);
        }
        assert_eq!(a.policy_value(), 255);
        let unicasts = (0..2560).filter(|_| a.decide() == Cast::Unicast).count();
        // P(unicast) = 255/256; expect ~2550.
        assert!(unicasts > 2500, "unicasts = {unicasts}");
    }

    #[test]
    fn idle_link_converges_back_to_broadcast() {
        let mut a = adaptor();
        for _ in 0..255 {
            a.sample_window(512, 512);
        }
        for _ in 0..255 {
            a.sample_window(0, 512);
        }
        assert_eq!(a.policy_value(), 0);
    }

    #[test]
    fn full_range_swing_takes_policy_max_samples() {
        // Paper: "our adaptive mechanism can change from 100% unicast to 0%
        // unicast (or vice versa) in 512 × 255 ≈ 130,000 cycles".
        let mut a = adaptor();
        let mut swings = 0;
        while a.policy_value() < 255 {
            a.sample_window(512, 512);
            swings += 1;
        }
        assert_eq!(swings, 255);
        assert_eq!(swings * a.sampling_interval_cycles(), 130_560);
    }

    #[test]
    fn mid_policy_mixes_casts_at_the_right_rate() {
        let mut a = adaptor();
        for _ in 0..128 {
            a.sample_window(512, 512);
        }
        assert_eq!(a.policy_value(), 128);
        let n = 65535; // one full LFSR period for an exact expectation
        let unicasts = (0..n).filter(|_| a.decide() == Cast::Unicast).count();
        let frac = unicasts as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "unicast fraction {frac}");
    }

    #[test]
    fn static_modes_ignore_policy() {
        let mut cfg = AdaptorConfig::paper_default();
        cfg.mode = DecisionMode::AlwaysUnicast;
        cfg.initial_policy = 0;
        let mut a = BandwidthAdaptor::new(&cfg, 0);
        assert_eq!(a.decide(), Cast::Unicast);
        assert_eq!(a.unicast_probability(), 1.0);

        let mut cfg = AdaptorConfig::paper_default();
        cfg.mode = DecisionMode::AlwaysBroadcast;
        cfg.initial_policy = 255;
        let mut a = BandwidthAdaptor::new(&cfg, 0);
        assert_eq!(a.decide(), Cast::Broadcast);
        assert_eq!(a.unicast_probability(), 0.0);
    }

    #[test]
    fn exact_threshold_leans_broadcast() {
        // At exactly the threshold the counter is zero, which the mechanism
        // treats as "not above" → bump down.
        let mut a = adaptor();
        a.sample_window(512, 512);
        a.sample_window(512, 512);
        assert_eq!(a.policy_value(), 2);
        a.sample_window(384, 512); // exactly 75%
        assert_eq!(a.policy_value(), 1);
    }

    proptest! {
        /// The long-run unicast fraction tracks policy/2^bits within noise,
        /// for any policy value.
        #[test]
        fn prop_unicast_rate_matches_policy(policy in 0u32..=255) {
            let mut cfg = AdaptorConfig::paper_default();
            cfg.initial_policy = policy;
            let mut a = BandwidthAdaptor::new(&cfg, 42);
            let n = 65535;
            let unicasts = (0..n).filter(|_| a.decide() == Cast::Unicast).count();
            let got = unicasts as f64 / n as f64;
            let want = policy as f64 / 256.0;
            prop_assert!((got - want).abs() < 0.02, "got {got}, want {want}");
        }
    }
}
