//! Run statistics: everything the paper's figures report.

use bash_kernel::Duration;
use bash_net::FaultStats;

/// Per-directed-link statistics of one measured window on a routed fabric
/// topology. The crossbar models endpoint links only and reports none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStat {
    /// Source vertex of the directed link. Vertices `>= nodes` are
    /// internal switch vertices (the star topology's hub).
    pub from: u16,
    /// Destination vertex of the directed link.
    pub to: u16,
    /// Bytes forwarded over the link in the measured window.
    pub bytes: u64,
    /// Messages forwarded over the link in the measured window.
    pub messages: u64,
    /// Peak same-instant enqueue demand observed over the whole run.
    pub peak_demand: u32,
    /// Fraction of the measured window the link spent transmitting.
    pub busy_fraction: f64,
}

/// Two-level-hierarchy statistics of one measured window: how traffic
/// split across cluster boundaries and how requests spread over the
/// directory-spine banks. Only present when the run was configured with
/// a [`HierarchyConfig`](bash_coherence::HierarchyConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Number of snooping clusters.
    pub clusters: u16,
    /// Number of directory-spine banks.
    pub banks: u16,
    /// Bytes delivered to destinations in the sender's own cluster.
    pub intra_cluster_bytes: u64,
    /// Bytes delivered across a cluster boundary (spine traffic).
    pub inter_cluster_bytes: u64,
    /// Coherence requests handled per spine bank, indexed by bank.
    pub bank_requests: Vec<u64>,
}

impl HierarchyStats {
    /// Fraction of delivered bytes that crossed a cluster boundary.
    pub fn inter_cluster_fraction(&self) -> f64 {
        let total = self.intra_cluster_bytes + self.inter_cluster_bytes;
        if total == 0 {
            0.0
        } else {
            self.inter_cluster_bytes as f64 / total as f64
        }
    }

    /// Peak-to-mean imbalance across the spine banks (1.0 = perfectly
    /// balanced; 0.0 when no bank handled a request).
    pub fn bank_balance(&self) -> f64 {
        let peak = self.bank_requests.iter().copied().max().unwrap_or(0);
        if peak == 0 {
            return 0.0;
        }
        let mean = self.bank_requests.iter().sum::<u64>() as f64 / self.bank_requests.len() as f64;
        mean / peak as f64
    }
}

/// Aggregate results of one measured simulation window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Protocol display name.
    pub protocol: &'static str,
    /// Workload display name.
    pub workload: String,
    /// Measured (post-warmup) simulated time.
    pub duration: Duration,
    /// Completed memory operations (lock acquires for the microbenchmark).
    pub ops_completed: u64,
    /// Instructions retired (macro workloads).
    pub retired_instructions: u64,
    /// Demand misses issued.
    pub misses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Misses served by another cache (sharing misses).
    pub sharing_misses: u64,
    /// Mean demand-miss latency in ns (Figure 9's y-axis).
    pub avg_miss_latency_ns: f64,
    /// Standard deviation of the miss latency.
    pub stddev_miss_latency_ns: f64,
    /// Largest observed miss latency in ns.
    pub max_miss_latency_ns: f64,
    /// Mean endpoint link utilization in `[0,1]` (Figure 6's y-axis).
    pub link_utilization: f64,
    /// Bytes through all endpoint links (bandwidth footprint).
    pub link_bytes: u64,
    /// Requests broadcast by caches.
    pub broadcasts: u64,
    /// Requests unicast by caches (dualcast for BASH).
    pub unicasts: u64,
    /// Writebacks started.
    pub writebacks: u64,
    /// BASH home retries injected.
    pub retries: u64,
    /// BASH retry escalations to full broadcast.
    pub broadcast_escalations: u64,
    /// BASH nacks sent by homes.
    pub nacks: u64,
    /// Simulation events processed in the window (engine throughput).
    pub events_processed: u64,
    /// High-water mark of the event queue over the whole run.
    pub peak_queue_len: u64,
    /// Per-directed-link stats, in the topology's link order (empty on the
    /// crossbar, which has no routed links).
    pub links: Vec<LinkStat>,
    /// Whole-run fault-plane counters (drops, retransmits, link deaths);
    /// `None` unless a fault plane was configured.
    pub fault: Option<FaultStats>,
    /// Cluster/bank traffic split; `None` unless the run used a two-level
    /// hierarchy.
    pub hierarchy: Option<HierarchyStats>,
}

impl RunStats {
    /// Completed operations per second — the microbenchmark performance
    /// metric ("lock acquires per nanosecond", normalized in the figures).
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.ops_completed as f64 / s
        }
    }

    /// Instructions per second — the macro-workload performance metric.
    pub fn instructions_per_sec(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.retired_instructions as f64 / s
        }
    }

    /// Fraction of cache requests that were broadcast (1.0 = pure
    /// snooping, 0.0 = pure directory behaviour).
    pub fn broadcast_fraction(&self) -> f64 {
        let total = self.broadcasts + self.unicasts;
        if total == 0 {
            0.0
        } else {
            self.broadcasts as f64 / total as f64
        }
    }

    /// Fraction of misses served cache-to-cache.
    pub fn sharing_fraction(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.sharing_misses as f64 / self.misses as f64
        }
    }

    /// Average link bytes consumed per miss (bandwidth cost).
    pub fn bytes_per_miss(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.link_bytes as f64 / self.misses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            protocol: "BASH",
            workload: "test".into(),
            duration: Duration::from_ns(1_000_000),
            ops_completed: 500,
            retired_instructions: 4000,
            misses: 400,
            hits: 100,
            sharing_misses: 300,
            avg_miss_latency_ns: 150.0,
            stddev_miss_latency_ns: 20.0,
            max_miss_latency_ns: 400.0,
            link_utilization: 0.74,
            link_bytes: 40_000,
            broadcasts: 300,
            unicasts: 100,
            writebacks: 5,
            retries: 40,
            broadcast_escalations: 1,
            nacks: 0,
            events_processed: 123_456,
            peak_queue_len: 97,
            links: Vec::new(),
            fault: None,
            hierarchy: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample();
        assert!((s.ops_per_sec() - 500.0 / 1e-3).abs() < 1e-6);
        assert!((s.instructions_per_sec() - 4000.0 / 1e-3).abs() < 1e-6);
        assert!((s.broadcast_fraction() - 0.75).abs() < 1e-12);
        assert!((s.sharing_fraction() - 0.75).abs() < 1e-12);
        assert!((s.bytes_per_miss() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_derived_metrics() {
        let h = HierarchyStats {
            clusters: 4,
            banks: 4,
            intra_cluster_bytes: 3000,
            inter_cluster_bytes: 1000,
            bank_requests: vec![10, 20, 30, 40],
        };
        assert!((h.inter_cluster_fraction() - 0.25).abs() < 1e-12);
        assert!((h.bank_balance() - 25.0 / 40.0).abs() < 1e-12);
        let empty = HierarchyStats {
            clusters: 2,
            banks: 2,
            intra_cluster_bytes: 0,
            inter_cluster_bytes: 0,
            bank_requests: vec![0, 0],
        };
        assert_eq!(empty.inter_cluster_fraction(), 0.0);
        assert_eq!(empty.bank_balance(), 0.0);
    }

    #[test]
    fn zero_duration_is_safe() {
        let mut s = sample();
        s.duration = Duration::ZERO;
        assert_eq!(s.ops_per_sec(), 0.0);
        assert_eq!(s.instructions_per_sec(), 0.0);
    }
}
