//! # bash — the one-stop facade for the Bandwidth Adaptive Snooping
//! reproduction
//!
//! This crate re-exports the whole simulator workspace behind a single
//! import and adds the fluent [`SimBuilder`] entry point: configure a
//! protocol, a system, a workload and a measurement plan, then
//! [`run`](SimBuilder::run) it to get a structured [`RunReport`] —
//! optionally aggregated over several perturbed seeds (the paper's
//! error-bar methodology), or swept across bandwidths with
//! [`run_sweep`](SimBuilder::run_sweep).
//!
//! # Quickstart
//!
//! ```
//! use bash::{ProtocolKind, SimBuilder};
//!
//! let report = SimBuilder::new(ProtocolKind::Bash)
//!     .nodes(8)
//!     .bandwidth_mbps(1600)
//!     .locking_microbench(256, bash::Duration::ZERO)
//!     .warmup_ns(50_000)
//!     .measure_ns(100_000)
//!     .run();
//! assert!(report.runs[0].misses > 0);
//! assert!(report.perf.mean > 0.0);
//! ```
//!
//! Lower-level pieces stay reachable through the re-exported workspace
//! crates ([`kernel`], [`net`], [`coherence`], [`adaptive`], [`workloads`],
//! [`sim`], [`queueing`], [`tester`]) and through the flat re-exports
//! below, so examples and tests never need to depend on more than this one
//! crate.

#![deny(missing_docs)]

/// The bandwidth-adaptive mechanism (utilization + policy counters).
pub use bash_adaptive as adaptive;
/// The three MOSI coherence protocol engines.
pub use bash_coherence as coherence;
/// The discrete-event kernel: time, event queue, RNG, statistics.
pub use bash_kernel as kernel;
/// The interconnect models: the paper's crossbar plus the routed
/// multi-topology fabric.
pub use bash_net as net;
/// The closed queueing model behind Figure 2.
pub use bash_queueing as queueing;
/// The system driver (`System`, `SystemConfig`, `RunStats`).
pub use bash_sim as sim;
/// The randomized protocol tester.
pub use bash_tester as tester;
/// Versioned on-disk reference traces (binary + text, capture/replay).
pub use bash_trace as trace;
/// Workload generators (microbenchmark, synthetic macros, scripts,
/// sharing patterns, the scenario catalog, trace replay).
pub use bash_workloads as workloads;

pub use bash_adaptive::{AdaptorConfig, BandwidthAdaptor, DecisionMode, UtilizationCounter};
pub use bash_coherence::{
    BlockAddr, CacheGeometry, HierarchyConfig, ProcOp, ProtocolKind, TransitionLog,
};
// Kernel internals (the event queue, the deterministic RNG, busy-time
// trackers) stay behind [`kernel`]: the facade's flat namespace carries
// only the vocabulary a simulation user configures or reads back.
pub use bash_kernel::{Duration, Time};
pub use bash_net::{
    FaultPlaneConfig, FaultStats, Jitter, LinkFaultProfile, NodeId, NodeSet, OrderingMode,
    TopologyKind, TransportConfig,
};
pub use bash_sim::{
    ConfigError, FaultInjection, HierarchyStats, LinkStat, RunError, RunStats, System,
    SystemConfig, WatchdogBudget, WedgeCause, WedgeDiagnostic,
};
pub use bash_tester::{
    differential_trace, minimize_trace, run_verify, run_verify_trace, CheckViolation, DiffMismatch,
    DifferentialReport, LatencyDiff, LatencySummary, MinimizeOutcome, VerifyConfig, VerifyReport,
};
pub use bash_trace::{
    ChunkIndex, SeekableTrace, Trace, TraceCapture, TraceError, TraceHeader, TraceReader,
    TraceRecord, TraceWriter,
};
pub use bash_workloads::{
    catalog, Completion, LockingMicrobench, PatternKind, PatternParams, PatternWorkload, Scenario,
    ScriptWorkload, StreamingTraceWorkload, SyntheticWorkload, TraceWorkload, WorkItem, Workload,
    WorkloadParams,
};

mod builder;
mod report_text;

pub use builder::{
    BoxedWorkload, BuildError, CaptureSpec, FabricSpec, HierarchySpec, Metric, PointError,
    PointErrorKind, RobustnessSpec, RunReport, SimBuilder,
};
pub use report_text::{sweep_canonical_text, REPORT_TEXT_VERSION};

/// The one-line import for the common workflow: configure a
/// [`SimBuilder`], run it, read the [`RunReport`].
///
/// Pulls in the builder with its three spec groups ([`FabricSpec`],
/// [`RobustnessSpec`], [`CaptureSpec`]), the enums they are configured
/// with, the time vocabulary, and the report types — and nothing else.
/// Anything deeper (the event queue, protocol engines, trace codecs)
/// stays behind the re-exported workspace crates ([`kernel`], [`net`],
/// [`coherence`], ...).
///
/// ```
/// use bash::prelude::*;
///
/// let report = SimBuilder::new(ProtocolKind::Bash)
///     .nodes(8)
///     .locking_microbench(256, Duration::ZERO)
///     .warmup_ns(50_000)
///     .measure_ns(100_000)
///     .run();
/// assert!(report.perf.mean > 0.0);
/// ```
pub mod prelude {
    pub use crate::builder::{
        BuildError, CaptureSpec, FabricSpec, HierarchySpec, Metric, PointError, PointErrorKind,
        RobustnessSpec, RunReport, SimBuilder,
    };
    pub use bash_coherence::{CacheGeometry, ProtocolKind};
    pub use bash_kernel::{Duration, Time};
    pub use bash_net::{FaultPlaneConfig, Jitter, TopologyKind};
    pub use bash_sim::WatchdogBudget;
    pub use bash_workloads::WorkloadParams;
}

/// Verifies a named catalog scenario under one protocol with the
/// harness's hostile defaults (4 nodes, tiny thrashing cache, jittered
/// latencies, 400 ops per node): the one-call entry point to the
/// invariant suite.
///
/// ```
/// let report = bash::verify_scenario("migratory", bash::ProtocolKind::Bash).unwrap();
/// assert!(report.passed());
/// ```
///
/// # Errors
///
/// Returns [`BuildError::UnknownScenario`] for a name the catalog does
/// not know.
pub fn verify_scenario(scenario: &str, protocol: ProtocolKind) -> Result<VerifyReport, BuildError> {
    SimBuilder::new(protocol)
        .nodes(4)
        .scenario(scenario)
        .try_verify(400)
}
