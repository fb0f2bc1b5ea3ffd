//! The bandwidth-adaptive mechanism of the BASH paper (§2).
//!
//! Each processor decides per request whether to **broadcast** (snooping
//! behaviour) or **unicast** (directory behaviour). The decision pipeline:
//!
//! 1. a signed saturating [`UtilizationCounter`] measures whether the node's
//!    link utilization over the last sampling window was above or below a
//!    target threshold (+1 per busy cycle, −3 per idle cycle ⇒ 75 %);
//! 2. every 512 cycles the counter's sign bumps an 8-bit saturating
//!    [`PolicyCounter`] up (too busy ⇒ more unicast) or down;
//! 3. each outgoing request is unicast iff a pseudo-random draw is below the
//!    policy counter: the next state of a 16-bit [`Lfsr16`], masked to the
//!    counter's [`AdaptorConfig::policy_bits`] (8 by default, giving
//!    P(unicast) ≈ policy/256).
//!
//! The numbers above are the paper's defaults; everything is configurable
//! via [`AdaptorConfig`]. The full pipeline is packaged as
//! [`BandwidthAdaptor`].
//!
//! # Example
//!
//! ```
//! use bash_adaptive::{AdaptorConfig, BandwidthAdaptor, Cast};
//!
//! let mut adaptor = BandwidthAdaptor::new(&AdaptorConfig::paper_default(), 1);
//! // Saturated link for many windows: the policy swings toward unicast.
//! for _ in 0..600 {
//!     adaptor.sample_window(512, 512); // busy_cycles, window_cycles
//! }
//! let unicasts = (0..1000).filter(|_| adaptor.decide() == Cast::Unicast).count();
//! assert!(unicasts > 950);
//! ```

pub mod lfsr;
pub mod mechanism;
pub mod policy;
pub mod util_counter;

pub use lfsr::Lfsr16;
pub use mechanism::{AdaptorConfig, BandwidthAdaptor, Cast, DecisionMode};
pub use policy::PolicyCounter;
pub use util_counter::UtilizationCounter;
