//! System configuration: the paper's target system (§4.2, §5.2) with every
//! modeling knob exposed.

use bash_adaptive::AdaptorConfig;
use bash_coherence::{CacheGeometry, HierarchyConfig, ProtocolKind};
use bash_kernel::Duration;
use bash_net::ids::MAX_NODES;
use bash_net::{FaultPlaneConfig, Jitter, TopologyKind};

/// Deliberate fault injection — the verification harness's self-test
/// hook. A protocol tester is only trustworthy if it demonstrably catches
/// broken protocols; injecting a fault here produces a "broken protocol
/// variant" whose violations the harness must detect and whose failing
/// trace the minimizer must shrink. Never enabled by default.
///
/// A run under an injection passes or ends in one of three typed
/// outcomes, never a panic: a protocol violation (a controller rejected
/// a delivery the broken network made, and the driver stopped the run
/// there), a wedge, or an oracle failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Corrupt the value returned by every `period`-th completed load
    /// (counting across all nodes; `period = 1` corrupts every load),
    /// emulating a protocol that returns stale or fabricated data to the
    /// processor.
    CorruptLoads {
        /// Corruption period in completed loads (must be ≥ 1).
        period: u64,
    },
    /// Drop every `period`-th invalidation: a GetM delivery addressed to a
    /// bystander cache holding the block in the Shared state is silently
    /// discarded instead of invalidating the copy, emulating a lost
    /// invalidation message. The stale copy keeps serving local loads, so
    /// the oracle must flag the protocol (stale or out-of-thin-air
    /// values). Only pure sharers are targeted — an owner must still
    /// supply data or the system would deadlock rather than misbehave.
    DropInvalidations {
        /// Drop period in eligible invalidation deliveries (must be ≥ 1).
        period: u64,
    },
    /// Redeliver every `period`-th eligible request — a GetM arriving at
    /// its home memory controller, the ownership-transfer point all three
    /// protocols share — a second time, 20 µs later, emulating a network
    /// that duplicates messages. The duplicate fires only if ownership has
    /// moved to *another* cache in the meantime (a duplicate the home
    /// would treat as idempotent proves nothing), so the home re-runs the
    /// ownership transfer and corrupts the owner record out from under the
    /// real owner: its writeback is then discarded as stale (dirty data
    /// lost → stale memory values) or requests for the block wedge with an
    /// owner that will never answer (quiescence failure). Either way the
    /// oracle must flag the run.
    DuplicateDeliveries {
        /// Duplication period in eligible deliveries (must be ≥ 1).
        period: u64,
    },
    /// Deliver totally ordered messages out of order: per destination
    /// node, hold ordered deliveries back and release each batch of
    /// `window` in reverse, so different nodes observe overlapping
    /// requests in different orders — emulating an interconnect that lost
    /// its total-order guarantee. Protocol serialization breaks down (two
    /// caches both believe they won an ownership race, writebacks squash
    /// at the cache but not at the home, …), which the oracle must flag as
    /// stale values or a quiescence failure.
    ReorderOrdered {
        /// Reorder window in ordered deliveries per node (must be ≥ 2).
        window: u64,
    },
    /// Silently lose a sharer from the home's bookkeeping: after every
    /// `period`-th eligible request (a GetS/GetM reaching its home memory
    /// controller), the home's record of the *requestor* is erased — it is
    /// removed from the sharer bitmap, and if it was recorded as the
    /// owner the record is reset to memory. The home subsequently skips
    /// the forgotten node when invalidating (stale values survive in its
    /// cache) or fetches stale data from memory while the forgotten owner
    /// holds the only dirty copy. The oracle must flag either symptom;
    /// the structural sweep also sees the record/reality mismatch.
    StaleSharerMask {
        /// Corruption period in eligible home-bound requests (must be ≥ 1).
        period: u64,
    },
}

/// Full configuration of a simulated system.
///
/// Defaults ([`SystemConfig::paper_default`]) reproduce the paper's timing:
/// 50 ns crossbar traversal, 80 ns DRAM/directory access, 25 ns cache data
/// provision — giving 180 ns memory fetches, 125 ns snooping cache-to-cache
/// transfers and 255 ns directory (or BASH-retry) cache-to-cache transfers.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which coherence protocol to run.
    pub protocol: ProtocolKind,
    /// Number of integrated processor/memory nodes.
    pub nodes: u16,
    /// Endpoint link bandwidth in MB/s (the paper's x-axis).
    pub link_mbps: u64,
    /// Interconnect topology. [`TopologyKind::Crossbar`] (the default) is
    /// the paper's contended-endpoint crossbar; every other kind routes
    /// messages hop-by-hop through the fabric engine with per-directed-link
    /// contention.
    pub topology: TopologyKind,
    /// Fixed crossbar traversal latency.
    pub traversal: Duration,
    /// DRAM / directory access latency.
    pub dram_latency: Duration,
    /// Cache-controller latency to provide data to the interconnect.
    pub cache_provide_latency: Duration,
    /// L2 cache geometry.
    pub cache_geometry: CacheGeometry,
    /// Bandwidth multiplier for full broadcasts (4 in Figure 11).
    pub broadcast_cost_multiplier: u32,
    /// The adaptive mechanism's parameters (used by BASH, checked for
    /// every protocol).
    pub adaptor: AdaptorConfig,
    /// Two-level hierarchical coherence: snooping clusters under a
    /// sharded directory spine. `None` (the default) runs the flat
    /// paper system. With a hierarchy every protocol personality rides
    /// the hierarchical BASH engine — Snooping pins cluster-casts,
    /// Directory pins spine dualcasts, BASH adapts per cluster.
    pub hierarchy: Option<HierarchyConfig>,
    /// BASH home retry-buffer capacity (per memory controller).
    pub retry_capacity: usize,
    /// Record transition coverage (Table 1 / tester runs).
    pub coverage: bool,
    /// Message latency perturbation (tester and error-bar methodology).
    pub jitter: Jitter,
    /// Deliberate fault injection (verification-harness self-tests only;
    /// `None` in every normal run).
    pub fault: Option<FaultInjection>,
    /// Deterministic interconnect fault plane (loss, corruption, delay,
    /// outages) plus the reliable-delivery transport. Requires a routed
    /// fabric topology — the crossbar has no links to fault.
    pub fault_plane: Option<FaultPlaneConfig>,
    /// Quiescence watchdog: event / virtual-time budgets that convert a
    /// wedged run into a structured diagnostic instead of an endless loop
    /// (see [`System::try_run_to_idle`](crate::System::try_run_to_idle)).
    pub watchdog: Option<WatchdogBudget>,
    /// Master RNG seed.
    pub seed: u64,
}

/// Budgets for the quiescence watchdog. A run exceeding either budget is
/// declared wedged and reported with a structured diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogBudget {
    /// Maximum events processed before the run is declared wedged
    /// (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Maximum virtual time before the run is declared wedged
    /// (`None` = unlimited).
    pub max_virtual_time: Option<Duration>,
}

impl WatchdogBudget {
    /// A budget on processed events only.
    pub fn events(max: u64) -> Self {
        WatchdogBudget {
            max_events: Some(max),
            max_virtual_time: None,
        }
    }

    /// A budget on virtual time only.
    pub fn virtual_time(max: Duration) -> Self {
        WatchdogBudget {
            max_events: None,
            max_virtual_time: Some(max),
        }
    }
}

impl SystemConfig {
    /// The paper's target system for the given protocol / size / bandwidth.
    pub fn paper_default(protocol: ProtocolKind, nodes: u16, link_mbps: u64) -> Self {
        SystemConfig {
            protocol,
            nodes,
            link_mbps,
            topology: TopologyKind::Crossbar,
            traversal: Duration::from_ns(50),
            dram_latency: Duration::from_ns(80),
            cache_provide_latency: Duration::from_ns(25),
            cache_geometry: CacheGeometry {
                sets: 1024,
                ways: 4,
            },
            broadcast_cost_multiplier: 1,
            adaptor: AdaptorConfig::paper_default(),
            hierarchy: None,
            retry_capacity: 64,
            coverage: false,
            jitter: Jitter::None,
            fault: None,
            fault_plane: None,
            watchdog: None,
            seed: 0xBA5E,
        }
    }

    /// Overrides the cache geometry.
    pub fn with_cache(mut self, geometry: CacheGeometry) -> Self {
        self.cache_geometry = geometry;
        self
    }

    /// Overrides the interconnect topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the adaptive mechanism configuration.
    pub fn with_adaptor(mut self, adaptor: AdaptorConfig) -> Self {
        self.adaptor = adaptor;
        self
    }

    /// Enables two-level hierarchical coherence (snooping clusters under
    /// a sharded directory spine).
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Sets the RNG seed (perturbation methodology: run several seeds and
    /// aggregate).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables transition-coverage recording.
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Enables message-latency jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Enables deliberate fault injection (harness self-tests).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a deterministic interconnect fault plane (requires a
    /// fabric topology; see [`Self::with_topology`]).
    pub fn with_fault_plane(mut self, plane: FaultPlaneConfig) -> Self {
        self.fault_plane = Some(plane);
        self
    }

    /// Arms the quiescence watchdog.
    pub fn with_watchdog(mut self, budget: WatchdogBudget) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Checks every rule [`System::new`](crate::System::new) relies on,
    /// whatever the protocol; the error names the first rule broken.
    pub fn check(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        let (nodes, cache) = (self.nodes, self.cache_geometry);
        // A flat system checks as clusters of one under one bank, a shape
        // that breaks no hierarchy rule.
        let HierarchyConfig {
            cluster_size,
            banks,
        } = self.hierarchy.unwrap_or(HierarchyConfig::new(1, 1));
        let rules = [
            (nodes == 0, E::ZeroNodes),
            (nodes as usize > MAX_NODES, E::TooManyNodes),
            (self.link_mbps == 0, E::ZeroBandwidth),
            (self.broadcast_cost_multiplier < 1, E::BadBroadcastCost),
            (self.retry_capacity == 0, E::ZeroRetryCapacity),
            (cache.sets == 0 || cache.ways == 0, E::BadCacheGeometry),
            (cluster_size == 0, E::ZeroClusterSize),
            (banks == 0, E::ZeroHierarchyBanks),
            (
                !nodes.is_multiple_of(cluster_size),
                E::ClusterSizeMismatch {
                    cluster_size,
                    nodes,
                },
            ),
            (
                !nodes.is_multiple_of(banks),
                E::BankCountMismatch { banks, nodes },
            ),
            (
                self.fault_plane.is_some() && self.topology == TopologyKind::Crossbar,
                E::FaultPlaneNeedsFabric,
            ),
        ];
        if let Some((_, e)) = rules.into_iter().find(|(broken, _)| *broken) {
            return Err(e);
        }
        match self.fault {
            Some(FaultInjection::ReorderOrdered { window: 0 | 1 }) => Err(E::ReorderWindowTooSmall),
            Some(
                FaultInjection::CorruptLoads { period: 0 }
                | FaultInjection::DropInvalidations { period: 0 }
                | FaultInjection::DuplicateDeliveries { period: 0 }
                | FaultInjection::StaleSharerMask { period: 0 },
            ) => Err(E::ZeroFaultPeriod),
            _ => Ok(()),
        }?;
        if let Some(plane) = &self.fault_plane {
            plane.check().map_err(E::BadFaultPlane)?;
        }
        self.adaptor.check().map_err(E::BadAdaptor)
    }
}

/// Why [`SystemConfig::check`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The system needs at least one node.
    ZeroNodes,
    /// More nodes than a [`NodeSet`](bash_net::NodeSet) can hold.
    TooManyNodes,
    /// Endpoint links need positive bandwidth.
    ZeroBandwidth,
    /// The broadcast cost multiplier must be at least 1.
    BadBroadcastCost,
    /// The BASH retry buffer needs at least one entry.
    ZeroRetryCapacity,
    /// The cache needs at least one set and one way.
    BadCacheGeometry,
    /// The hierarchy's clusters are empty.
    ZeroClusterSize,
    /// The hierarchy has no directory-spine bank.
    ZeroHierarchyBanks,
    /// The hierarchy's `cluster_size` does not divide the node count.
    ClusterSizeMismatch { cluster_size: u16, nodes: u16 },
    /// The hierarchy's `banks` count does not divide the node count.
    BankCountMismatch { banks: u16, nodes: u16 },
    /// A periodic [`FaultInjection`] has period 0.
    ZeroFaultPeriod,
    /// [`FaultInjection::ReorderOrdered`] needs a window of at least 2.
    ReorderWindowTooSmall,
    /// The fault plane needs a routed fabric: the crossbar has no links
    /// to fault.
    FaultPlaneNeedsFabric,
    /// [`FaultPlaneConfig::check`] failed, for the reason given.
    BadFaultPlane(&'static str),
    /// [`AdaptorConfig::check`] failed, for the reason given.
    BadAdaptor(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::ZeroNodes => "need at least one node",
            Self::TooManyNodes => return write!(f, "at most {MAX_NODES} nodes supported"),
            Self::ZeroBandwidth => "bandwidth must be positive",
            Self::BadBroadcastCost => "broadcast cost multiplier must be >= 1",
            Self::ZeroRetryCapacity => "BASH needs at least one retry buffer",
            Self::BadCacheGeometry => "cache needs at least one set and one way",
            Self::ZeroClusterSize => "hierarchy cluster size must be at least 1",
            Self::ZeroHierarchyBanks => "hierarchy bank count must be at least 1",
            Self::ClusterSizeMismatch {
                cluster_size,
                nodes,
            } => {
                return write!(
                    f,
                    "hierarchy cluster size {cluster_size} does not divide the node count {nodes}"
                );
            }
            Self::BankCountMismatch { banks, nodes } => {
                return write!(
                    f,
                    "hierarchy bank count {banks} does not divide the node count {nodes}"
                );
            }
            Self::ZeroFaultPeriod => "fault period must be at least 1",
            Self::ReorderWindowTooSmall => "reorder window must be at least 2",
            Self::FaultPlaneNeedsFabric => {
                "the fault plane needs a fabric topology (the crossbar has no links)"
            }
            Self::BadFaultPlane(reason) | Self::BadAdaptor(reason) => reason,
        })
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use bash_workloads::LockingMicrobench;

    use super::*;

    #[test]
    fn paper_latencies() {
        let c = SystemConfig::paper_default(ProtocolKind::Bash, 16, 1600);
        // 50 + 80 + 50 = 180 ns memory fetch.
        assert_eq!((c.traversal + c.dram_latency + c.traversal).as_ns(), 180);
        // 50 + 25 + 50 = 125 ns snooping cache-to-cache.
        assert_eq!(
            (c.traversal + c.cache_provide_latency + c.traversal).as_ns(),
            125
        );
        // 50 + 80 + 50 + 25 + 50 = 255 ns directory cache-to-cache.
        assert_eq!(
            (c.traversal + c.dram_latency + c.traversal + c.cache_provide_latency + c.traversal)
                .as_ns(),
            255
        );
    }

    #[test]
    fn builders_apply() {
        let c = SystemConfig::paper_default(ProtocolKind::Snooping, 4, 800)
            .with_seed(7)
            .with_coverage();
        assert_eq!(c.seed, 7);
        assert!(c.coverage);
        assert_eq!(c.check(), Ok(()));
    }

    /// Each hierarchy rule has its own [`ConfigError`], and shapes that
    /// fit pass.
    #[test]
    fn misfit_hierarchies_name_the_broken_rule() {
        let check = |nodes, cluster_size, banks| {
            SystemConfig::paper_default(ProtocolKind::Bash, nodes, 800)
                .with_hierarchy(HierarchyConfig::new(cluster_size, banks))
                .check()
        };
        assert_eq!(check(8, 0, 1), Err(ConfigError::ZeroClusterSize));
        assert_eq!(check(8, 4, 0), Err(ConfigError::ZeroHierarchyBanks));
        assert_eq!(
            check(8, 3, 2),
            Err(ConfigError::ClusterSizeMismatch {
                cluster_size: 3,
                nodes: 8
            })
        );
        assert_eq!(
            check(8, 4, 3),
            Err(ConfigError::BankCountMismatch { banks: 3, nodes: 8 })
        );
        for (nodes, cluster_size, banks) in [(8, 4, 2), (8, 8, 8), (16, 4, 4), (64, 16, 4)] {
            assert_eq!(check(nodes, cluster_size, banks), Ok(()));
        }
    }

    /// `System::new` refuses a config that `check` rejects, with the
    /// error's text.
    #[test]
    #[should_panic(expected = "hierarchy cluster size 3 does not divide the node count 8")]
    fn misfit_hierarchy_rejected() {
        let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 8, 800)
            .with_hierarchy(HierarchyConfig::new(3, 2));
        crate::System::new(cfg, LockingMicrobench::new(8, 16, Duration::ZERO, 1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let mut c = SystemConfig::paper_default(ProtocolKind::Snooping, 4, 800);
        c.link_mbps = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroBandwidth));
        crate::System::new(c, LockingMicrobench::new(4, 8, Duration::ZERO, 1));
    }
}
