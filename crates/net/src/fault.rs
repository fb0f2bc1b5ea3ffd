//! The deterministic fault plane: per-directed-link fault profiles
//! (loss, corruption, delay, scheduled outages) plus the configuration of
//! the reliable-delivery transport the [`Fabric`](crate::Fabric) layers on
//! top of faulty links.
//!
//! # Determinism
//!
//! Every link owns an independent RNG stream forked from the plane's
//! master seed by link id, and draws exactly one value per decision in
//! event order. Because the simulation itself is deterministic, the whole
//! fault schedule — which crossing is lost, which retransmit timer fires,
//! which link dies — is a pure function of `(config, seed)`: identical
//! runs produce byte-identical fault sequences on any thread count.
//!
//! # Transport
//!
//! The fabric already assigns per-destination sequence numbers to ordered
//! traffic and re-sequences at the endpoints; the transport reuses those
//! as its wire-level sequence space (dedup + hold-back come for free).
//! Acks are short-circuited: the simulator knows a crossing's fate at the
//! instant it completes, so a delivered frame never spuriously
//! retransmits, and a lost frame schedules its retransmission at
//! `crossing_end + rto · 2^min(attempt, backoff_cap)` — the time the
//! sender's timeout would have fired. Ack loss is folded into the
//! forward drop probability. After `retransmit_budget` failed attempts
//! the link is declared **dead**: routing is recomputed over the
//! surviving links (see `Fabric::rebuild_routes`) and the stuck copy is
//! re-routed, preserving its `(destination, sequence)` identity; a
//! destination left unreachable is counted undeliverable and the wedge
//! surfaces through the core watchdog.

use bash_kernel::{DetRng, Duration, Time};

/// Fault profile of one directed link. The default profile is benign
/// (no loss, no corruption, no delay, never down).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultProfile {
    /// Probability a crossing is silently lost, in `[0, 1)`.
    pub drop_prob: f64,
    /// Probability a crossing is corrupted, in `[0, 1)`. Corruption
    /// models a link-level CRC catching a damaged frame: the payload is
    /// discarded at the receiver, indistinguishable from a drop except in
    /// the accounting (and, on a real wire, in who detects it).
    pub corrupt_prob: f64,
    /// Fixed extra propagation delay added to every successful crossing.
    pub extra_delay: Duration,
    /// Uniform jitter in `[0, delay_jitter]` added on top of
    /// `extra_delay` per crossing.
    pub delay_jitter: Duration,
    /// Scheduled outage windows `[from, to)`: a crossing completing
    /// inside one is lost (no RNG draw — outages are time-determined).
    pub down: Vec<(Time, Time)>,
}

impl Default for LinkFaultProfile {
    fn default() -> Self {
        LinkFaultProfile {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            extra_delay: Duration::ZERO,
            delay_jitter: Duration::ZERO,
            down: Vec::new(),
        }
    }
}

impl LinkFaultProfile {
    /// A profile that only drops, with probability `p`.
    pub fn lossy(p: f64) -> Self {
        LinkFaultProfile {
            drop_prob: p,
            ..LinkFaultProfile::default()
        }
    }

    fn is_down_at(&self, t: Time) -> bool {
        self.down.iter().any(|&(from, to)| t >= from && t < to)
    }
}

/// Parameters of the reliable-delivery transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// Base retransmission timeout (the first retry fires this long
    /// after the lost crossing would have completed).
    pub rto: Duration,
    /// Exponential backoff cap: attempt `k` waits `rto · 2^min(k, cap)`.
    pub backoff_cap: u32,
    /// Failed attempts per crossing after which the link is declared
    /// dead and routing fails over.
    pub retransmit_budget: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            rto: Duration::from_ns(2_000),
            backoff_cap: 6,
            retransmit_budget: 8,
        }
    }
}

/// Whole-fabric fault-plane configuration: a default profile, per-link
/// overrides, and the optional reliable transport. Attaching one to a
/// [`NetConfig`](crate::NetConfig) requires a routed fabric topology —
/// the crossbar has no links to fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlaneConfig {
    /// Master seed; each link forks its own stream from it by link id.
    pub seed: u64,
    /// Profile applied to every link without an override.
    pub default_profile: LinkFaultProfile,
    /// Per-directed-link overrides, keyed by `(from, to)` vertex ids.
    pub overrides: Vec<((u16, u16), LinkFaultProfile)>,
    /// The reliable-delivery transport; `None` exposes raw loss to the
    /// protocols (verification then wedges, which the watchdog reports).
    pub transport: Option<TransportConfig>,
}

impl FaultPlaneConfig {
    /// Uniform loss at probability `p` on every link, with the default
    /// reliable transport enabled.
    pub fn lossy(seed: u64, p: f64) -> Self {
        FaultPlaneConfig {
            seed,
            default_profile: LinkFaultProfile::lossy(p),
            overrides: Vec::new(),
            transport: Some(TransportConfig::default()),
        }
    }

    /// Disables the reliable transport (raw loss reaches the protocols).
    pub fn unprotected(mut self) -> Self {
        self.transport = None;
        self
    }

    /// True when the plane can lose messages *as the protocols see
    /// them*: the transport is disabled and some profile drops, corrupts,
    /// or takes a link down. A transport-protected plane (or one that
    /// only delays) preserves the delivery contract, so the controllers'
    /// delivery asserts stay valid.
    pub fn breaks_delivery(&self) -> bool {
        if self.transport.is_some() {
            return false;
        }
        let lossy =
            |p: &LinkFaultProfile| p.drop_prob > 0.0 || p.corrupt_prob > 0.0 || !p.down.is_empty();
        lossy(&self.default_profile) || self.overrides.iter().any(|(_, p)| lossy(p))
    }

    /// The profile governing directed link `(from, to)`.
    pub fn profile_for(&self, from: u16, to: u16) -> &LinkFaultProfile {
        self.overrides
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, p)| p)
            .unwrap_or(&self.default_profile)
    }

    /// Checks probabilities, outage windows and transport parameters;
    /// the error names the first rule broken.
    pub fn check(&self) -> Result<(), &'static str> {
        let profiles =
            std::iter::once(&self.default_profile).chain(self.overrides.iter().map(|(_, p)| p));
        for p in profiles {
            if !(0.0..1.0).contains(&p.drop_prob) || !(0.0..1.0).contains(&p.corrupt_prob) {
                return Err("fault probabilities must be in [0, 1)");
            }
            if p.down.iter().any(|&(from, to)| from >= to) {
                return Err("down window must be non-empty");
            }
        }
        match &self.transport {
            Some(t) if t.retransmit_budget == 0 => Err("retransmit budget must be >= 1"),
            Some(t) if t.rto.is_zero() => Err("rto must be positive"),
            _ => Ok(()),
        }
    }
}

/// Why a crossing was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DropCause {
    /// Random loss (the `drop_prob` draw).
    Loss,
    /// Link-level CRC caught a corrupted frame (the `corrupt_prob` draw).
    Corrupt,
    /// The link was inside a scheduled down window.
    Down,
    /// The link was declared dead by an earlier budget exhaustion.
    Dead,
}

/// The fate of one link crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// The frame arrived intact.
    Deliver,
    /// The frame was discarded.
    Drop(DropCause),
}

/// Aggregated fault-plane counters over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crossings lost to the drop probability.
    pub dropped: u64,
    /// Crossings discarded as corrupted (link CRC).
    pub corrupted: u64,
    /// Crossings lost to scheduled down windows or dead links.
    pub down_drops: u64,
    /// Retransmissions the transport scheduled.
    pub retransmits: u64,
    /// Links declared dead after budget exhaustion.
    pub dead_links: u64,
    /// Copies re-routed around a dead link.
    pub rerouted: u64,
    /// Copies whose destination became unreachable (or that were lost
    /// with no transport configured) — permanently undeliverable.
    pub undeliverable: u64,
}

/// Per-link runtime fault state.
#[derive(Debug)]
struct LinkFault {
    profile: LinkFaultProfile,
    rng: DetRng,
    dead: bool,
}

/// The runtime fault plane a [`Fabric`](crate::Fabric) consults on every
/// link crossing. Built from a [`FaultPlaneConfig`] plus the fabric's
/// link table.
#[derive(Debug)]
pub struct FaultPlane {
    transport: Option<TransportConfig>,
    links: Vec<LinkFault>,
    stats: FaultStats,
}

impl FaultPlane {
    /// Builds the plane for the given directed-link endpoint list (the
    /// fabric's link order).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultPlaneConfig::check`]).
    pub fn new(cfg: &FaultPlaneConfig, endpoints: &[(u16, u16)]) -> Self {
        if let Err(reason) = cfg.check() {
            panic!("{reason}");
        }
        let mut master = DetRng::seed_from(cfg.seed);
        let links = endpoints
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| LinkFault {
                profile: cfg.profile_for(from, to).clone(),
                rng: master.fork(i as u64),
                dead: false,
            })
            .collect();
        FaultPlane {
            transport: cfg.transport.clone(),
            links,
            stats: FaultStats::default(),
        }
    }

    /// The transport configuration, when reliable delivery is enabled.
    pub fn transport(&self) -> Option<&TransportConfig> {
        self.transport.as_ref()
    }

    /// Cumulative fault counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True when link `li` has been declared dead.
    pub fn is_dead(&self, li: usize) -> bool {
        self.links[li].dead
    }

    /// Declares link `li` dead (idempotent; counted once).
    pub(crate) fn mark_dead(&mut self, li: usize) {
        if !self.links[li].dead {
            self.links[li].dead = true;
            self.stats.dead_links += 1;
        }
    }

    /// Decides the fate of a crossing of link `li` completing at `now`,
    /// advancing the link's RNG stream. Draw order is fixed (corruption
    /// before loss) and a draw happens only when its probability is
    /// nonzero, so schedules stay stable when a profile knob is at zero.
    pub(crate) fn crossing_fate(&mut self, li: usize, now: Time) -> Fate {
        let link = &mut self.links[li];
        if link.dead {
            return Fate::Drop(DropCause::Dead);
        }
        if link.profile.is_down_at(now) {
            return Fate::Drop(DropCause::Down);
        }
        if link.profile.corrupt_prob > 0.0 && link.rng.chance(link.profile.corrupt_prob) {
            return Fate::Drop(DropCause::Corrupt);
        }
        if link.profile.drop_prob > 0.0 && link.rng.chance(link.profile.drop_prob) {
            return Fate::Drop(DropCause::Loss);
        }
        Fate::Deliver
    }

    /// Extra propagation delay for a crossing of link `li` (fixed part
    /// plus one uniform jitter draw when configured).
    pub(crate) fn extra_delay(&mut self, li: usize) -> Duration {
        let link = &mut self.links[li];
        let jitter = link.profile.delay_jitter.as_ps();
        let mut extra = link.profile.extra_delay;
        if jitter > 0 {
            extra += Duration::from_ps(link.rng.below(jitter + 1));
        }
        extra
    }

    /// Records a discarded crossing under its cause.
    pub(crate) fn count_drop(&mut self, cause: DropCause) {
        match cause {
            DropCause::Loss => self.stats.dropped += 1,
            DropCause::Corrupt => self.stats.corrupted += 1,
            DropCause::Down | DropCause::Dead => self.stats.down_drops += 1,
        }
    }

    /// Records a scheduled retransmission.
    pub(crate) fn count_retransmit(&mut self) {
        self.stats.retransmits += 1;
    }

    /// Records a re-routed copy.
    pub(crate) fn count_reroute(&mut self) {
        self.stats.rerouted += 1;
    }

    /// Records a permanently undeliverable copy.
    pub(crate) fn count_undeliverable(&mut self) {
        self.stats.undeliverable += 1;
    }

    /// Retransmission delay after `attempt` prior failures:
    /// `rto · 2^min(attempt, backoff_cap)`.
    pub(crate) fn rto_after(&self, attempt: u32) -> Duration {
        let t = self
            .transport
            .as_ref()
            .expect("rto_after requires a transport");
        let exp = attempt.min(t.backoff_cap);
        Duration::from_ps(t.rto.as_ps().saturating_mul(1u64 << exp.min(62)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints() -> Vec<(u16, u16)> {
        vec![(0, 1), (1, 0), (1, 2), (2, 1)]
    }

    #[test]
    fn fate_sequences_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = FaultPlaneConfig::lossy(seed, 0.3);
            let mut plane = FaultPlane::new(&cfg, &endpoints());
            (0..64)
                .map(|i| plane.crossing_fate(i % 4, Time::from_ns(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn per_link_streams_are_independent() {
        // Drawing on link 0 must not perturb link 1's stream.
        let cfg = FaultPlaneConfig::lossy(3, 0.5);
        let mut a = FaultPlane::new(&cfg, &endpoints());
        let mut b = FaultPlane::new(&cfg, &endpoints());
        for _ in 0..10 {
            a.crossing_fate(0, Time::ZERO);
        }
        let fa: Vec<_> = (0..16).map(|_| a.crossing_fate(1, Time::ZERO)).collect();
        let fb: Vec<_> = (0..16).map(|_| b.crossing_fate(1, Time::ZERO)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn down_windows_and_dead_links_drop_without_draws() {
        let profile = LinkFaultProfile {
            down: vec![(Time::from_ns(100), Time::from_ns(200))],
            ..LinkFaultProfile::default()
        };
        let cfg = FaultPlaneConfig {
            seed: 1,
            default_profile: profile,
            overrides: Vec::new(),
            transport: None,
        };
        let mut plane = FaultPlane::new(&cfg, &endpoints());
        assert_eq!(plane.crossing_fate(0, Time::from_ns(50)), Fate::Deliver);
        assert_eq!(
            plane.crossing_fate(0, Time::from_ns(150)),
            Fate::Drop(DropCause::Down)
        );
        assert_eq!(plane.crossing_fate(0, Time::from_ns(200)), Fate::Deliver);
        plane.mark_dead(0);
        plane.mark_dead(0);
        assert_eq!(plane.stats().dead_links, 1);
        assert_eq!(
            plane.crossing_fate(0, Time::from_ns(500)),
            Fate::Drop(DropCause::Dead)
        );
    }

    #[test]
    fn overrides_resolve_per_directed_link() {
        let mut cfg = FaultPlaneConfig::lossy(1, 0.0);
        cfg.overrides.push(((1, 2), LinkFaultProfile::lossy(0.9)));
        assert_eq!(cfg.profile_for(0, 1).drop_prob, 0.0);
        assert_eq!(cfg.profile_for(1, 2).drop_prob, 0.9);
        assert_eq!(cfg.profile_for(2, 1).drop_prob, 0.0);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let cfg = FaultPlaneConfig::lossy(1, 0.1);
        let plane = FaultPlane::new(&cfg, &endpoints());
        let base = plane.rto_after(0).as_ps();
        assert_eq!(plane.rto_after(1).as_ps(), base * 2);
        assert_eq!(plane.rto_after(2).as_ps(), base * 4);
        assert_eq!(plane.rto_after(6).as_ps(), base * 64);
        assert_eq!(plane.rto_after(7).as_ps(), base * 64, "capped");
    }

    /// `FaultPlane::new` panics with the reason `check` gives.
    #[test]
    #[should_panic(expected = "fault probabilities must be in [0, 1)")]
    fn out_of_range_probability_rejected() {
        FaultPlane::new(&FaultPlaneConfig::lossy(1, 1.5), &endpoints());
    }
}
