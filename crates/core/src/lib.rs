//! # bash-sim — Bandwidth Adaptive Snooping, reproduced
//!
//! A discrete-event simulator of the system evaluated in *"Bandwidth
//! Adaptive Snooping"* (Martin, Sorin, Hill, Wood — HPCA 2002): integrated
//! processor/memory nodes on a fixed-latency, bandwidth-limited crossbar,
//! running one of three MOSI coherence protocols — broadcast **Snooping**,
//! a GS320-style **Directory**, or the **BASH** hybrid that probabilistically
//! chooses between broadcasting and unicasting each request based on a local
//! estimate of link utilization.
//!
//! # Quickstart
//!
//! ```
//! use bash_kernel::Duration;
//! use bash_coherence::ProtocolKind;
//! use bash_sim::{System, SystemConfig};
//! use bash_workloads::LockingMicrobench;
//!
//! let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 8, 1600);
//! let workload = LockingMicrobench::new(8, 256, Duration::ZERO, 1);
//! let stats = System::run(
//!     cfg,
//!     workload,
//!     Duration::from_ns(200_000),  // warmup
//!     Duration::from_ns(400_000),  // measurement
//! );
//! assert!(stats.misses > 0);
//! assert!(stats.avg_miss_latency_ns > 0.0);
//! ```
//!
//! See the `bash-experiments` binary for the harness that regenerates every
//! figure and table of the paper; its module docs list every experiment.

pub mod config;
mod fault_injector;
pub mod stats;
pub mod system;

pub use bash_coherence::HierarchyConfig;
pub use config::{FaultInjection, SystemConfig, WatchdogBudget};
pub use stats::{HierarchyStats, LinkStat, RunStats};
pub use system::{RunError, System, WedgeCause, WedgeDiagnostic};
