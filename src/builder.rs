//! The fluent [`SimBuilder`] entry point and its structured [`RunReport`]
//! result.
//!
//! Every consumer of the simulator — examples, integration tests, the
//! experiment harness — goes through this layer instead of hand-assembling
//! `SystemConfig` + workload + `System::run` calls. The builder owns the
//! paper's measurement methodology: warmup to steady state, measure a
//! window, and optionally aggregate over several seed-perturbed runs
//! (mean ± stddev, the paper's error-bar method) or sweep a list of
//! bandwidths.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bash_adaptive::AdaptorConfig;
use bash_coherence::{CacheGeometry, HierarchyConfig, ProtocolKind};
use bash_kernel::pool;
use bash_kernel::stats::RunningStat;
use bash_kernel::{Duration, Time};
use bash_net::{FaultPlaneConfig, Jitter, TopologyKind};
use bash_sim::{ConfigError, RunError, RunStats, System, SystemConfig, WatchdogBudget};
use bash_trace::{Trace, TraceReader};
use bash_workloads::{
    catalog, LockingMicrobench, StreamingTraceWorkload, SyntheticWorkload, TraceWorkload, Workload,
    WorkloadParams,
};

/// A type-erased workload, as produced by [`SimBuilder`] workload factories.
pub type BoxedWorkload = Box<dyn Workload>;

/// The maximum injection delay that perturbs each run of a multi-seed
/// point (the experiments' historical value).
const PERTURBATION: Duration = Duration::from_ns(3);

/// How many times the sweep executor re-attempts a grid point whose
/// simulation panicked (for environmental flakes) before recording a
/// `kind=panicked` [`PointError`] row — the last resort, for panics
/// outside the controllers' contract checks.
const PANIC_RETRIES: u32 = 1;

/// One executed grid point: its measured stats plus (for the first grid
/// point only, when enabled) the policy trace and the captured op trace.
struct PointResult {
    stats: RunStats,
    policy_trace: Option<Vec<(Time, f64)>>,
    captured: Option<Trace>,
}

/// How a grid point can fail without sinking the rest of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointErrorKind {
    /// The watchdog tripped: the point exceeded its event or virtual-time
    /// budget (or stalled with work outstanding) and was cut off with a
    /// structured [`bash_sim::WedgeDiagnostic`].
    Wedged,
    /// A controller rejected a delivery that breaks the protocols'
    /// delivery contract, and the run ended there
    /// ([`RunError::ProtocolViolation`]).
    Violation,
    /// The point's simulation panicked; the panic was caught at the grid
    /// executor and, after one retry, recorded here instead of
    /// aborting the sweep.
    Panicked,
}

impl PointErrorKind {
    /// Stable lower-case name (used in the canonical report text).
    pub fn name(self) -> &'static str {
        match self {
            PointErrorKind::Wedged => "wedged",
            PointErrorKind::Violation => "violation",
            PointErrorKind::Panicked => "panicked",
        }
    }
}

/// One failed grid point of a [`RunReport`]: the sweep executor isolates
/// failures per (bandwidth × seed) point, so a single poisoned
/// configuration degrades that point instead of aborting the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    /// Which seed-perturbed run of this bandwidth point failed.
    pub seed_index: u32,
    /// How many times the point was attempted (panics are retried once;
    /// wedges and violations are deterministic and never retried).
    pub attempts: u32,
    /// Wedged (watchdog), violation (rejected delivery) or panicked
    /// (caught unwind).
    pub kind: PointErrorKind,
    /// The wedge diagnostic, protocol violation or panic payload, rendered.
    pub message: String,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} {} after {} attempt(s): {}",
            self.seed_index,
            self.kind.name(),
            self.attempts,
            self.message
        )
    }
}

/// Why a [`SimBuilder`] configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The [`SystemConfig`] of some sweep point failed
    /// [`SystemConfig::check`].
    Config(ConfigError),
    /// A bandwidth sweep needs at least one point.
    EmptySweep,
    /// Seed aggregation needs at least one run.
    ZeroSeeds,
    /// The measurement window must be non-empty.
    EmptyMeasurement,
    /// No workload was configured.
    MissingWorkload,
    /// [`SimBuilder::scenario`] was given a name the catalog does not know.
    UnknownScenario(String),
    /// [`SimBuilder::trace_in`] trace was captured on a different node
    /// count than the builder is configured for.
    TraceNodeMismatch {
        /// Node count in the trace header.
        trace: u16,
        /// Node count the builder is configured for.
        nodes: u16,
    },
    /// [`SimBuilder::capture_all_points`] was enabled without a
    /// [`SimBuilder::ops_out`] path to derive the bundle paths from.
    AllPointsWithoutTraceOut,
    /// [`SimBuilder::trace_in_path`] could not open or decode the trace
    /// file's header.
    TraceUnreadable {
        /// The offending path.
        path: PathBuf,
        /// The decode error, rendered.
        error: String,
    },
    /// An *unprotected* lossy fault plane was configured without a
    /// watchdog budget: messages are silently lost, so wedges are the
    /// expected outcome, and an unbudgeted run can only be cut off by the
    /// drained-queue stall check — which never fires while retransmission
    /// timers or samplers keep the queue alive. Either arm a
    /// [`SimBuilder::watchdog`], or opt in to unguarded wedges with
    /// [`SimBuilder::allow_unprotected_wedges`].
    UnprotectedLossyNeedsWatchdog,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => e.fmt(f),
            BuildError::EmptySweep => f.write_str("bandwidth sweep needs at least one point"),
            BuildError::ZeroSeeds => f.write_str("seed aggregation needs at least one run"),
            BuildError::EmptyMeasurement => f.write_str("measurement window must be non-empty"),
            BuildError::MissingWorkload => f.write_str("no workload configured"),
            BuildError::UnknownScenario(name) => write!(
                f,
                "unknown scenario {name:?} (known: {})",
                catalog::names().join(", ")
            ),
            BuildError::TraceNodeMismatch { trace, nodes } => write!(
                f,
                "trace was captured on {trace} nodes but the builder is configured for {nodes}"
            ),
            BuildError::AllPointsWithoutTraceOut => {
                f.write_str("capture_all_points needs an ops_out path to derive bundle paths")
            }
            BuildError::TraceUnreadable { path, error } => {
                write!(f, "trace file {}: {error}", path.display())
            }
            BuildError::UnprotectedLossyNeedsWatchdog => f.write_str(
                "an unprotected lossy fault plane needs a watchdog budget \
                 (or allow_unprotected_wedges to opt in to unguarded wedges)",
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// A summary statistic over the per-seed runs of one report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Mean over all runs.
    pub mean: f64,
    /// Sample standard deviation over runs (0 for a single run).
    pub stddev: f64,
    /// Smallest per-run value.
    pub min: f64,
    /// Largest per-run value.
    pub max: f64,
}

impl Metric {
    /// Aggregates raw per-run samples (via the kernel's [`RunningStat`],
    /// so mean/stddev semantics match every other statistic the simulator
    /// reports).
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "metric needs at least one sample");
        let mut stat = RunningStat::new();
        for &s in samples {
            stat.push(s);
        }
        Metric {
            mean: stat.mean(),
            stddev: stat.stddev(),
            min: stat.min().expect("non-empty"),
            max: stat.max().expect("non-empty"),
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.stddev)
    }
}

/// The structured result of one [`SimBuilder`] run: every headline number
/// of the paper's figures, aggregated over the configured seeds, plus the
/// raw per-seed [`RunStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protocol the report was measured under.
    pub protocol: ProtocolKind,
    /// Workload display name.
    pub workload: String,
    /// System size in nodes.
    pub nodes: u16,
    /// Endpoint link bandwidth of this report (one sweep point).
    pub bandwidth_mbps: u64,
    /// Number of seed-perturbed runs aggregated here.
    pub seeds: u32,
    /// Performance: instructions/s when the workload retires instructions,
    /// operations/s otherwise (the paper's micro vs. macro metric).
    pub perf: Metric,
    /// Completed memory operations per second.
    pub ops_per_sec: Metric,
    /// Instructions retired per second.
    pub instructions_per_sec: Metric,
    /// Mean demand-miss latency in ns (Figure 9's y-axis).
    pub miss_latency_ns: Metric,
    /// Mean endpoint link utilization in `[0,1]` (Figure 6's y-axis).
    pub link_utilization: Metric,
    /// Fraction of cache requests broadcast (1 = snooping-like behaviour).
    pub broadcast_fraction: Metric,
    /// Per-sampling-window mean policy-counter trace of the first seed,
    /// when enabled with [`SimBuilder::policy_trace`].
    pub policy_trace: Option<Vec<(Time, f64)>>,
    /// The raw measured-window statistics of every seed that completed,
    /// in seed order. Failed seeds appear in [`errors`](Self::errors)
    /// instead, so `runs.len() + errors.len() == seeds`.
    pub runs: Vec<RunStats>,
    /// The seeds that failed instead of completing (empty on
    /// every healthy run — the normal case). The metrics above aggregate
    /// only the completed seeds.
    pub errors: Vec<PointError>,
}

impl RunReport {
    /// The first (or only) completed seed's raw statistics.
    ///
    /// # Panics
    ///
    /// Panics when every seed of this point failed (see
    /// [`errors`](Self::errors)).
    pub fn stats(&self) -> &RunStats {
        &self.runs[0]
    }
}

/// How the builder manufactures a workload for each run.
enum WorkloadSpec {
    /// The paper's locking microbenchmark.
    Micro { locks: u64, think: Duration },
    /// One of the five synthetic macro workloads.
    Macro(WorkloadParams),
    /// A named catalog scenario (resolved at build time; validated first).
    Scenario(String),
    /// A recorded reference stream, replayed per run (shared, not cloned,
    /// across the sweep grid — replay queues are rebuilt per run).
    Trace(Arc<Trace>),
    /// A trace file replayed *streaming*: every run re-opens the file and
    /// pulls records through a [`TraceReader`] on demand, so the trace is
    /// never resident — the multi-GB path. The node count was read from
    /// the header at [`SimBuilder::trace_in_path`] time.
    TraceFile {
        /// The on-disk trace (either format version).
        path: PathBuf,
        /// Node count from the file header.
        nodes: u16,
    },
    /// An arbitrary factory: `(nodes, seed) -> workload`. `Send + Sync`
    /// so the parallel sweep executor can build workloads on worker
    /// threads.
    Factory(Box<dyn Fn(u16, u64) -> BoxedWorkload + Send + Sync>),
}

impl WorkloadSpec {
    fn build(&self, nodes: u16, seed: u64) -> BoxedWorkload {
        match self {
            WorkloadSpec::Micro { locks, think } => {
                Box::new(LockingMicrobench::new(nodes, *locks, *think, seed ^ 0xA5))
            }
            WorkloadSpec::Macro(params) => {
                Box::new(SyntheticWorkload::new(nodes, params.clone(), seed ^ 0xA5))
            }
            WorkloadSpec::Scenario(name) => {
                catalog::build(name, nodes, seed ^ 0xA5).expect("validated scenario name")
            }
            WorkloadSpec::Trace(trace) => {
                Box::new(TraceWorkload::from_trace(trace).expect("validated trace"))
            }
            WorkloadSpec::TraceFile { path, .. } => {
                // The header was validated when the path was configured; a
                // file that vanished or rotted since is an environment
                // failure, kept loud like the capture-side panics.
                let file = std::fs::File::open(path)
                    .unwrap_or_else(|e| panic!("trace file {}: {e}", path.display()));
                let reader = TraceReader::new(std::io::BufReader::new(file))
                    .unwrap_or_else(|e| panic!("trace file {}: {e}", path.display()));
                Box::new(StreamingTraceWorkload::new(reader))
            }
            WorkloadSpec::Factory(f) => f(nodes, seed),
        }
    }
}

/// Fluent configuration of one simulation campaign.
///
/// The builder holds one [`SystemConfig`], started from
/// [`SystemConfig::paper_default`] (the paper's latencies, cache geometry,
/// adaptive mechanism, retry capacity and seed, with 16 nodes at
/// 1600 MB/s), plus the campaign around it: the bandwidth sweep, the
/// measurement plan, the seeds, what to capture and the workload. Each
/// setter writes the one value it names; [`config`](Self::config) clones
/// the system for one grid point. See the crate-level docs for a
/// quickstart.
pub struct SimBuilder {
    /// The system every grid point clones; its `link_mbps` is replaced by
    /// the point's bandwidth and its `seed` is the base seed.
    cfg: SystemConfig,
    bandwidths: Vec<u64>,
    /// The L2 override. Unset, timed runs keep the paper's L2 while
    /// [`try_verify`](Self::try_verify) keeps the harness's thrashing one.
    cache: Option<CacheGeometry>,
    allow_unprotected_wedges: bool,
    ops_out: Option<PathBuf>,
    capture_all_points: bool,
    capture_completions: bool,
    policy_trace: bool,
    warmup: Duration,
    measure: Duration,
    seeds: u32,
    threads: Option<usize>,
    workload: Option<WorkloadSpec>,
}

impl SimBuilder {
    /// Starts a builder for `protocol` with the paper-default system:
    /// 16 nodes, 1600 MB/s links, a 100 µs warmup and 400 µs measurement.
    pub fn new(protocol: ProtocolKind) -> Self {
        SimBuilder {
            cfg: SystemConfig::paper_default(protocol, 16, 1600),
            bandwidths: vec![1600],
            cache: None,
            allow_unprotected_wedges: false,
            ops_out: None,
            capture_all_points: false,
            capture_completions: false,
            policy_trace: false,
            warmup: Duration::from_ns(100_000),
            measure: Duration::from_ns(400_000),
            seeds: 1,
            threads: None,
            workload: None,
        }
    }

    /// Switches the protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.cfg.protocol = protocol;
        self
    }

    /// Sets the system size in nodes.
    pub fn nodes(mut self, nodes: u16) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Sets the interconnect topology. The default,
    /// [`TopologyKind::Crossbar`], is the paper's contended-endpoint
    /// crossbar; every other kind routes messages hop-by-hop through the
    /// fabric engine with per-directed-link contention and per-link stats
    /// in [`RunStats::links`](bash_sim::RunStats).
    ///
    /// ```
    /// use bash::{ProtocolKind, SimBuilder, TopologyKind};
    ///
    /// let b = SimBuilder::new(ProtocolKind::Bash)
    ///     .topology(TopologyKind::Mesh2D)
    ///     .bandwidth_mbps(800);
    /// assert_eq!(b.config(800, 0).topology, TopologyKind::Mesh2D);
    /// ```
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Sets a single endpoint link bandwidth in MB/s.
    pub fn bandwidth_mbps(mut self, mbps: u64) -> Self {
        self.bandwidths = vec![mbps];
        self
    }

    /// Sets the bandwidth sweep for [`run_sweep`](Self::run_sweep) (the
    /// paper's x-axis). [`run`](Self::run) uses the first point.
    pub fn bandwidths(mut self, mbps: impl IntoIterator<Item = u64>) -> Self {
        self.bandwidths = mbps.into_iter().collect();
        self
    }

    /// Sets the bandwidth multiplier for full broadcasts (4 in
    /// Figure 11).
    pub fn broadcast_cost(mut self, multiplier: u32) -> Self {
        self.cfg.broadcast_cost_multiplier = multiplier;
        self
    }

    /// Groups the nodes into a two-level hierarchy: snooping clusters of
    /// [`HierarchyConfig::cluster_size`] nodes under a directory spine
    /// sharded across [`HierarchyConfig::banks`] address-interleaved
    /// banks. Both counts must divide the node count;
    /// [`validate`](Self::validate) rejects misfits.
    ///
    /// Under a hierarchy every protocol personality rides the hierarchical
    /// BASH engine: Snooping cluster-casts every request, Directory
    /// dualcasts to the spine bank, and BASH chooses per cluster via the
    /// paper's adaptive mechanism fed with cluster-mean utilization. See
    /// `docs/HIERARCHY.md`.
    ///
    /// ```
    /// use bash::{BuildError, HierarchyConfig, ProtocolKind, SimBuilder};
    ///
    /// let b = SimBuilder::new(ProtocolKind::Bash)
    ///     .nodes(64)
    ///     .hierarchy(HierarchyConfig::new(8, 4));
    /// // No workload yet, but the shape fits.
    /// assert_eq!(b.validate(), Err(BuildError::MissingWorkload));
    /// ```
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.cfg.hierarchy = Some(hierarchy);
        self
    }

    /// Sets the warmup window run before measurement starts.
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the warmup window in nanoseconds.
    pub fn warmup_ns(self, ns: u64) -> Self {
        self.warmup(Duration::from_ns(ns))
    }

    /// Sets the measurement window.
    pub fn measure(mut self, measure: Duration) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the measurement window in nanoseconds.
    pub fn measure_ns(self, ns: u64) -> Self {
        self.measure(Duration::from_ns(ns))
    }

    /// Sets both warmup and measurement windows at once.
    pub fn plan(mut self, warmup: Duration, measure: Duration) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Aggregates every report over `seeds` perturbed runs (the paper's
    /// methodology: deterministic runs perturbed with small random request
    /// delays, mean ± stddev reported). With more than one seed, every run
    /// gets a uniform injection delay of up to 3 ns, seeded per run.
    pub fn seeds(mut self, seeds: u32) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the base RNG seed. Run `s` uses `base + s * 7919`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Replaces the paper-default adaptive mechanism configuration (BASH
    /// only).
    pub fn adaptor(mut self, adaptor: AdaptorConfig) -> Self {
        self.cfg.adaptor = adaptor;
        self
    }

    /// Replaces the paper-default L2 cache geometry.
    pub fn cache(mut self, geometry: CacheGeometry) -> Self {
        self.cache = Some(geometry);
        self
    }

    /// Replaces the paper-default BASH home retry-buffer capacity.
    pub fn retry_capacity(mut self, capacity: usize) -> Self {
        self.cfg.retry_capacity = capacity;
        self
    }

    /// Injects deterministic link faults (drops, corruption, delay,
    /// outages) into the routed fabric; a fault plane needs a fabric
    /// [`topology`](Self::topology). With [`FaultPlaneConfig::lossy`]
    /// (transport enabled) the reliable-delivery layer retransmits until
    /// every message lands; with [`FaultPlaneConfig::unprotected`]
    /// messages are simply lost, and [`validate`](Self::validate) then
    /// asks for a [`watchdog`](Self::watchdog) or an
    /// [`allow_unprotected_wedges`](Self::allow_unprotected_wedges) opt-in.
    pub fn fault_plane(mut self, plane: FaultPlaneConfig) -> Self {
        self.cfg.fault_plane = Some(plane);
        self
    }

    /// Arms the quiescence watchdog: a run exceeding the budget is cut
    /// off with a structured [`bash_sim::WedgeDiagnostic`] instead of
    /// spinning forever; in a sweep the wedge becomes a [`PointError`]
    /// row.
    pub fn watchdog(mut self, budget: WatchdogBudget) -> Self {
        self.cfg.watchdog = Some(budget);
        self
    }

    /// Opts out of [`BuildError::UnprotectedLossyNeedsWatchdog`]: run an
    /// unprotected lossy plane with no watchdog budget, relying on the
    /// drained-queue stall check alone to diagnose the expected wedges.
    pub fn allow_unprotected_wedges(mut self, on: bool) -> Self {
        self.allow_unprotected_wedges = on;
        self
    }

    /// Captures the op stream of the first grid point (first bandwidth,
    /// seed 0) and writes it to `path` in the compact binary form when
    /// the run finishes; feed the file back through
    /// [`trace_in_path`](Self::trace_in_path) to replay it under any
    /// protocol, bandwidth, or thread count. The run **panics** if the
    /// path cannot be opened for writing (probed up front) or the capture
    /// turns out unusable — capture failures are programmer errors, not
    /// configuration errors.
    pub fn ops_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.ops_out = Some(path.into());
        self
    }

    /// Captures **every** (bandwidth × seed) grid point into a trace
    /// bundle next to the [`ops_out`](Self::ops_out) path (with a
    /// `.b<mbps>.s<seed>` infix), not just the first. Requires `ops_out`;
    /// [`validate`](Self::validate) rejects the combination otherwise.
    pub fn capture_all_points(mut self, on: bool) -> Self {
        self.capture_all_points = on;
        self
    }

    /// Stamps every captured op with its issue→complete latency, so the
    /// captures are **completion-bearing** traces — the input the
    /// differential latency pass ([`bash_tester::differential_trace`])
    /// summarizes per protocol. Off by default: reference-stream goldens
    /// stay lean and timing-free.
    pub fn capture_completions(mut self, on: bool) -> Self {
        self.capture_completions = on;
        self
    }

    /// Records the mean policy-counter trace (one point per adaptive
    /// sampling window) of the first seed into
    /// [`RunReport::policy_trace`].
    pub fn policy_trace(mut self, on: bool) -> Self {
        self.policy_trace = on;
        self
    }

    /// Uses the paper's locking microbenchmark: `locks` mostly-uncontended
    /// locks with `think` time between release and the next acquire.
    pub fn locking_microbench(mut self, locks: u64, think: Duration) -> Self {
        self.workload = Some(WorkloadSpec::Micro { locks, think });
        self
    }

    /// Uses one of the synthetic macro workloads (Table 2 stand-ins).
    pub fn synthetic(mut self, params: WorkloadParams) -> Self {
        self.workload = Some(WorkloadSpec::Macro(params));
        self
    }

    /// Uses a named scenario from the workload catalog (e.g.
    /// `"migratory"`, `"producer-consumer"`, `"zipf"`; see
    /// [`catalog::names`]). Unknown names are rejected at
    /// [`validate`](Self::validate) / run time.
    pub fn scenario(mut self, name: impl Into<String>) -> Self {
        self.workload = Some(WorkloadSpec::Scenario(name.into()));
        self
    }

    /// Replays a recorded reference trace instead of generating a
    /// workload. Also sets the node count to the trace's: this and
    /// [`trace_in_path`](Self::trace_in_path) are the only setters that
    /// write a second value (override the count afterwards at your peril:
    /// [`validate`](Self::validate) insists they match, since trace
    /// records address capture-time nodes).
    pub fn trace_in(mut self, trace: Trace) -> Self {
        self.cfg.nodes = trace.nodes;
        self.workload = Some(WorkloadSpec::Trace(Arc::new(trace)));
        self
    }

    /// Replays a trace **file** instead of generating a workload, decoding
    /// it *streaming*: every run of the grid re-opens `path` and pulls
    /// records through a [`TraceReader`] on demand, so a multi-GB trace
    /// never has to fit in memory (unlike [`trace_in`](Self::trace_in),
    /// which buffers the whole record list). The file header is read here,
    /// and, as with `trace_in`, the node count is set to the trace's; a
    /// missing or corrupt header is reported immediately.
    ///
    /// # Errors
    ///
    /// [`BuildError::TraceUnreadable`] when `path` cannot be opened or its
    /// header fails to decode.
    pub fn trace_in_path(mut self, path: impl Into<PathBuf>) -> Result<Self, BuildError> {
        let path = path.into();
        let unreadable = |error: String, path: &PathBuf| BuildError::TraceUnreadable {
            path: path.clone(),
            error,
        };
        let file = std::fs::File::open(&path).map_err(|e| unreadable(e.to_string(), &path))?;
        let reader = TraceReader::new(std::io::BufReader::new(file))
            .map_err(|e| unreadable(e.to_string(), &path))?;
        let nodes = reader.header().nodes;
        self.cfg.nodes = nodes;
        self.workload = Some(WorkloadSpec::TraceFile { path, nodes });
        Ok(self)
    }

    /// Uses an arbitrary workload factory, called once per run with the
    /// system size and that run's seed. The factory must be `Send + Sync`
    /// because runs of a sweep may build their workloads on worker threads.
    pub fn workload_with(
        mut self,
        factory: impl Fn(u16, u64) -> BoxedWorkload + Send + Sync + 'static,
    ) -> Self {
        self.workload = Some(WorkloadSpec::Factory(Box::new(factory)));
        self
    }

    /// Caps the number of worker threads used to execute the
    /// (bandwidth × seed) grid of [`run`](Self::run) /
    /// [`run_sweep`](Self::run_sweep).
    ///
    /// Defaults to [`available_parallelism`](std::thread::available_parallelism)
    /// (`0` restores that default); `1` forces fully sequential execution
    /// on the calling thread. The thread count **never changes results**:
    /// every grid point is an independent, self-seeded simulation, and
    /// reports are assembled in grid order — `.threads(8)` is byte-identical
    /// to `.threads(1)`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Checks the configuration without running anything.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.seeds == 0 {
            return Err(BuildError::ZeroSeeds);
        }
        if self.measure.is_zero() {
            return Err(BuildError::EmptyMeasurement);
        }
        self.check_config()?;
        if self.workload.is_none() {
            return Err(BuildError::MissingWorkload);
        }
        Ok(())
    }

    /// Every plan-independent configuration check, shared by
    /// [`validate`](Self::validate) (full campaigns) and
    /// [`check_runnable`](Self::check_runnable) (plan-less entry points
    /// like [`build_system`](Self::build_system)): each sweep point's
    /// [`SystemConfig::check`], plus the rules only the builder knows.
    fn check_config(&self) -> Result<(), BuildError> {
        if self.bandwidths.is_empty() {
            return Err(BuildError::EmptySweep);
        }
        for &mbps in &self.bandwidths {
            self.config(mbps, 0).check().map_err(BuildError::Config)?;
        }
        if self.capture_all_points && self.ops_out.is_none() {
            return Err(BuildError::AllPointsWithoutTraceOut);
        }
        if self.cfg.fault_plane.as_ref().is_some_and(|plane| {
            plane.breaks_delivery() && self.cfg.watchdog.is_none() && !self.allow_unprotected_wedges
        }) {
            return Err(BuildError::UnprotectedLossyNeedsWatchdog);
        }
        if let Some(spec) = &self.workload {
            self.check_spec(spec)?;
        }
        Ok(())
    }

    /// The spec checks `WorkloadSpec::build` relies on (shared by
    /// [`validate`](Self::validate) and [`build_system`](Self::build_system)).
    fn check_spec(&self, spec: &WorkloadSpec) -> Result<(), BuildError> {
        let nodes = self.cfg.nodes;
        match spec {
            WorkloadSpec::Scenario(name) if catalog::find(name).is_none() => {
                Err(BuildError::UnknownScenario(name.clone()))
            }
            WorkloadSpec::Trace(trace) if trace.nodes != nodes => {
                Err(BuildError::TraceNodeMismatch {
                    trace: trace.nodes,
                    nodes,
                })
            }
            &WorkloadSpec::TraceFile { nodes: trace, .. } if trace != nodes => {
                Err(BuildError::TraceNodeMismatch { trace, nodes })
            }
            _ => Ok(()),
        }
    }

    /// The `SystemConfig` run `seed_index` would use at `mbps`: the
    /// builder's system with that bandwidth, that run's seed, the cache
    /// override and, with more than one seed, the perturbation jitter.
    pub fn config(&self, mbps: u64, seed_index: u32) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        cfg.link_mbps = mbps;
        cfg.seed = self.cfg.seed.wrapping_add(seed_index as u64 * 7919);
        if let Some(geometry) = self.cache {
            cfg.cache_geometry = geometry;
        }
        if self.seeds > 1 {
            // Perturbation methodology: a small random injection delay per
            // request, seeded per run so every report is reproducible.
            cfg = cfg.with_jitter(Jitter::Uniform {
                injection_max: PERTURBATION,
                traversal_max: Duration::ZERO,
                seed: 0x9E37u64.wrapping_add(seed_index as u64),
            });
        }
        cfg
    }

    /// Builds a primed [`System`] for the first bandwidth point and base
    /// seed without running it — the escape hatch for callers that drive
    /// time themselves (`try_run_until`, `try_run_to_idle`, traces).
    pub fn build_system(&self) -> Result<System<BoxedWorkload>, BuildError> {
        let spec = self.check_runnable()?;
        let cfg = self.config(self.bandwidths[0], 0);
        let workload = spec.build(cfg.nodes, cfg.seed);
        Ok(System::new(cfg, workload))
    }

    /// The checks shared by every plan-less entry point
    /// ([`build_system`](Self::build_system), [`try_verify`](Self::try_verify)):
    /// a system can be built without a measurement plan; reject everything
    /// `System::new` itself would panic on, plus a missing workload.
    fn check_runnable(&self) -> Result<&WorkloadSpec, BuildError> {
        self.check_config()?;
        self.workload.as_ref().ok_or(BuildError::MissingWorkload)
    }

    /// Runs the configured workload through the verification harness,
    /// with the generalized value oracle, quiescence check and structural
    /// invariant sweep enabled. The
    /// [`VerifyConfig`](bash_tester::VerifyConfig) copies the protocol,
    /// node count, bandwidth, seed, topology, hierarchy, fault plane,
    /// watchdog, adaptor and retry capacity from
    /// [`config`](Self::config) at the first bandwidth point and seed
    /// index 0. It takes the cache only when [`cache`](Self::cache) set
    /// one, and otherwise keeps the harness's thrashing 4×2 cache.
    /// Endless workloads are capped at `ops_per_node` operations per node
    /// so the run reaches quiescence; a [`trace_in`](Self::trace_in)
    /// replay ignores the cap and always runs the whole trace (it is the
    /// reproduction path for captured failures).
    ///
    /// Unlike [`run`](Self::run), this ignores the measurement plan,
    /// [`seeds`](Self::seeds) and the
    /// [`broadcast_cost`](Self::broadcast_cost): a verification run is
    /// one run that always executes to idle and sweeps invariants at
    /// quiescence. The returned report carries the instrumented op trace,
    /// ready for [`tester::minimize_trace`](bash_tester::minimize_trace)
    /// if the run failed.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the configuration is invalid.
    pub fn try_verify(&self, ops_per_node: u64) -> Result<bash_tester::VerifyReport, BuildError> {
        let spec = self.check_runnable()?;
        let cfg = self.config(self.bandwidths[0], 0);
        let mut vcfg = bash_tester::VerifyConfig {
            nodes: cfg.nodes,
            link_mbps: cfg.link_mbps,
            topology: cfg.topology,
            ops_per_node,
            fault_plane: cfg.fault_plane,
            watchdog: cfg.watchdog,
            hierarchy: cfg.hierarchy,
            adaptor: cfg.adaptor,
            retry_capacity: cfg.retry_capacity,
            ..bash_tester::VerifyConfig::new(cfg.protocol, cfg.seed)
        };
        if self.cache.is_some() {
            vcfg.cache = cfg.cache_geometry;
        }
        if let WorkloadSpec::Trace(trace) = spec {
            // A replay must reproduce the whole captured stream: the
            // trace's own length, not the op cap, bounds the run.
            return Ok(bash_tester::run_verify_trace(&vcfg, trace));
        }
        if let WorkloadSpec::TraceFile { path, .. } = spec {
            // Verification re-captures and may minimize, so it wants the
            // whole trace in hand; load it once here.
            let trace = Trace::read_from(path).map_err(|e| BuildError::TraceUnreadable {
                path: path.clone(),
                error: e.to_string(),
            })?;
            return Ok(bash_tester::run_verify_trace(&vcfg, &trace));
        }
        let workload = spec.build(vcfg.nodes, vcfg.seed);
        Ok(bash_tester::run_verify(&vcfg, workload))
    }

    /// Runs the verification harness (see [`try_verify`](Self::try_verify)).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn verify(&self, ops_per_node: u64) -> bash_tester::VerifyReport {
        self.try_verify(ops_per_node)
            .expect("invalid SimBuilder configuration")
    }

    /// Runs the first bandwidth point, aggregating over the configured
    /// seeds (in parallel across seeds when more than one thread is
    /// available).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the configuration is invalid.
    pub fn try_run(&self) -> Result<RunReport, BuildError> {
        self.validate()?;
        let bandwidths = &self.bandwidths[..1];
        Ok(self
            .run_grid(bandwidths, self.ops_out.is_some())
            .0
            .pop()
            .expect("one bandwidth point"))
    }

    /// Runs the first bandwidth point, aggregating over the configured
    /// seeds.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`try_run`](Self::try_run) to handle errors.
    pub fn run(&self) -> RunReport {
        self.try_run().expect("invalid SimBuilder configuration")
    }

    /// Runs every configured bandwidth point in order, one report each.
    ///
    /// The full (bandwidth × seed) grid is fanned out across worker
    /// threads (see [`threads`](Self::threads)); results are collected
    /// back in deterministic grid order, so the reports are identical to a
    /// sequential run.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the configuration is invalid.
    pub fn try_run_sweep(&self) -> Result<Vec<RunReport>, BuildError> {
        self.validate()?;
        Ok(self.run_grid(&self.bandwidths, self.ops_out.is_some()).0)
    }

    /// Runs every configured bandwidth point in order, one report each
    /// (in parallel; see [`try_run_sweep`](Self::try_run_sweep)).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`try_run_sweep`](Self::try_run_sweep) to handle errors.
    pub fn run_sweep(&self) -> Vec<RunReport> {
        self.try_run_sweep()
            .expect("invalid SimBuilder configuration")
    }

    /// Runs the first bandwidth point and also returns the reference
    /// trace captured from its first seed — the programmatic form of
    /// [`ops_out`](Self::ops_out). Feed the trace back through
    /// [`trace_in`](Self::trace_in) (same plan and config) and the replay
    /// reproduces the returned report byte-for-byte, at any thread count.
    ///
    /// The byte-for-byte contract holds for single-seed runs (the
    /// default). With [`seeds`](Self::seeds) `> 1`, only seed 0's stream
    /// is captured: the live report aggregates a *distinct* generated
    /// stream per seed, while a replay feeds every seed the same recorded
    /// stream (under the usual per-seed injection perturbation), so the
    /// aggregates differ.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the configuration is invalid.
    pub fn try_run_captured(&self) -> Result<(RunReport, Trace), BuildError> {
        self.validate()?;
        let (mut reports, trace) = self.run_grid(&self.bandwidths[..1], true);
        Ok((
            reports.pop().expect("one bandwidth point"),
            trace.expect("capture ran (did the first grid point wedge or panic?)"),
        ))
    }

    /// Runs the first bandwidth point and returns the report plus the
    /// captured trace (see [`try_run_captured`](Self::try_run_captured)).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn run_captured(&self) -> (RunReport, Trace) {
        self.try_run_captured()
            .expect("invalid SimBuilder configuration")
    }

    /// Executes one (bandwidth, seed) grid point: build, warm up, measure.
    /// A watchdog trip or a protocol violation surfaces as a
    /// [`PointError`] instead of spinning or panicking.
    fn run_point(
        &self,
        mbps: u64,
        seed_index: u32,
        capture: bool,
    ) -> Result<PointResult, PointError> {
        let spec = self.workload.as_ref().expect("validated");
        let mut cfg = self.config(mbps, seed_index);
        if capture {
            cfg = if self.capture_completions {
                cfg.with_capture_completions()
            } else {
                cfg.with_capture()
            };
        }
        let workload = spec.build(cfg.nodes, cfg.seed);
        let mut sys = System::new(cfg, workload);
        let trace = self.policy_trace && seed_index == 0;
        if trace {
            sys.enable_policy_trace();
        }
        let measured = (|| -> Result<RunStats, RunError> {
            sys.try_run_until(Time::ZERO + self.warmup)?;
            sys.begin_measurement();
            sys.try_finish(Time::ZERO + self.warmup + self.measure)
        })();
        let stats = match measured {
            Ok(stats) => stats,
            Err(err) => {
                // A run error is deterministic, so one attempt is
                // definitive.
                let kind = match err {
                    RunError::Wedged(_) => PointErrorKind::Wedged,
                    RunError::ProtocolViolation { .. } => PointErrorKind::Violation,
                };
                return Err(PointError {
                    seed_index,
                    attempts: 1,
                    kind,
                    message: err.to_string(),
                });
            }
        };
        let policy_trace = if trace {
            sys.policy_trace().map(|t| t.to_vec())
        } else {
            None
        };
        Ok(PointResult {
            stats,
            policy_trace,
            captured: sys.take_captured_trace(),
        })
    }

    /// Fans the full (bandwidth × seed) grid out across the thread pool
    /// and folds the results back into per-bandwidth reports in grid
    /// order. Every grid point is an independent simulation with its own
    /// deterministic seeding, so the thread count cannot affect any
    /// reported number — only the wall-clock time.
    ///
    /// With `capture`, the first grid point (first bandwidth, seed 0) also
    /// records its op stream; the trace is returned and, when
    /// [`ops_out`](Self::ops_out) is set, written to disk.
    fn run_grid(&self, bandwidths: &[u64], capture: bool) -> (Vec<RunReport>, Option<Trace>) {
        if let (true, Some(path)) = (capture, &self.ops_out) {
            // Probe the output path before burning the whole grid's
            // compute on it: open-for-append creates a missing file and
            // surfaces an unwritable one, without clobbering any existing
            // trace should the run itself fail.
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("ops_out path {} unwritable: {e}", path.display()));
        }
        let seeds = self.seeds as usize;
        let tasks = bandwidths.len() * seeds;
        let threads = self
            .threads
            .unwrap_or_else(pool::available_threads)
            .min(tasks.max(1));
        let capture_all = capture && self.capture_all_points && self.ops_out.is_some();
        // Panic isolation: a grid point that panics (after one retry, for
        // environmental flakes) becomes an error row of its report instead
        // of unwinding through the whole sweep. Wedges and violations come
        // back as `Err(PointError)` from `run_point` itself and are never
        // retried.
        let mut results: Vec<Result<PointResult, PointError>> =
            pool::run_indexed_isolated(tasks, threads, PANIC_RETRIES, |i| {
                self.run_point(
                    bandwidths[i / seeds],
                    (i % seeds) as u32,
                    capture && (i == 0 || capture_all),
                )
            })
            .into_iter()
            .map(|slot| match slot {
                Ok(point) => point,
                Err(panic) => Err(PointError {
                    seed_index: (panic.index % seeds) as u32,
                    attempts: panic.attempts,
                    kind: PointErrorKind::Panicked,
                    message: panic.message,
                }),
            })
            .collect();
        let captured = results[0].as_mut().ok().and_then(|p| p.captured.take());
        if let Some(trace) = &captured {
            // A capture that fails validation (e.g. the workload yielded
            // zero ops) would be unloadable by every decode path; fail at
            // the source instead of persisting a poisoned artifact.
            trace
                .validate()
                .unwrap_or_else(|e| panic!("captured trace is unusable: {e}"));
        }
        if let (Some(path), Some(trace)) = (&self.ops_out, &captured) {
            trace
                .write_to(path)
                .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
            if capture_all {
                self.write_point_trace(path, bandwidths[0], 0, trace);
            }
        }
        if capture_all {
            let path = self.ops_out.as_ref().expect("checked above");
            for (i, result) in results.iter_mut().enumerate().skip(1) {
                // A failed point captured nothing; its error row stands in.
                let Ok(point) = result else { continue };
                let trace = point.captured.take().expect("all points captured");
                trace
                    .validate()
                    .unwrap_or_else(|e| panic!("captured trace is unusable: {e}"));
                self.write_point_trace(path, bandwidths[i / seeds], (i % seeds) as u32, &trace);
            }
        }
        let reports = bandwidths
            .iter()
            .map(|&mbps| {
                let mut policy_trace = None;
                let mut runs = Vec::new();
                let mut errors = Vec::new();
                for slot in results.drain(..seeds) {
                    match slot {
                        Ok(mut p) => {
                            if policy_trace.is_none() {
                                policy_trace = p.policy_trace.take();
                            }
                            runs.push(p.stats);
                        }
                        Err(e) => errors.push(e),
                    }
                }
                self.report_for(mbps, runs, errors, policy_trace)
            })
            .collect();
        (reports, captured)
    }

    /// Writes one grid point's captured trace next to the `ops_out`
    /// base path, tagged with its bandwidth and seed index:
    /// `run.trace` → `run.b<mbps>.s<seed>.trace`.
    fn write_point_trace(&self, base: &Path, mbps: u64, seed_index: u32, trace: &Trace) {
        let stem = base
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        let ext = base
            .extension()
            .map(|e| format!(".{}", e.to_string_lossy()))
            .unwrap_or_default();
        let path = base.with_file_name(format!("{stem}.b{mbps}.s{seed_index}{ext}"));
        trace
            .write_to(&path)
            .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
    }

    /// Aggregates one bandwidth point's per-seed runs into a report.
    /// Failed seeds contribute error rows instead of samples; when every
    /// seed failed, the metrics degrade to zeros rather than panicking, so
    /// the rest of the sweep still reports.
    fn report_for(
        &self,
        mbps: u64,
        runs: Vec<RunStats>,
        errors: Vec<PointError>,
        policy_trace: Option<Vec<(Time, f64)>>,
    ) -> RunReport {
        let workload_name = runs
            .last()
            .map(|r| r.workload.clone())
            .unwrap_or_else(|| "<all seeds failed>".to_string());
        let metric = |f: &dyn Fn(&RunStats) -> f64| {
            if runs.is_empty() {
                return Metric {
                    mean: 0.0,
                    stddev: 0.0,
                    min: 0.0,
                    max: 0.0,
                };
            }
            Metric::from_samples(&runs.iter().map(f).collect::<Vec<_>>())
        };
        let ops = metric(&|r| r.ops_per_sec());
        let instr = metric(&|r| r.instructions_per_sec());
        // Micro workloads retire no instructions; macro workloads do. Pick
        // the metric the paper plots for each kind.
        let perf = if runs.iter().any(|r| r.retired_instructions > 0) {
            instr
        } else {
            ops
        };
        RunReport {
            protocol: self.cfg.protocol,
            workload: workload_name,
            nodes: self.cfg.nodes,
            bandwidth_mbps: mbps,
            seeds: self.seeds,
            perf,
            ops_per_sec: ops,
            instructions_per_sec: instr,
            miss_latency_ns: metric(&|r| r.avg_miss_latency_ns),
            link_utilization: metric(&|r| r.link_utilization),
            broadcast_fraction: metric(&|r| r.broadcast_fraction()),
            policy_trace,
            runs,
            errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_aggregates() {
        let m = Metric::from_samples(&[1.0, 2.0, 3.0]);
        assert!((m.mean - 2.0).abs() < 1e-12);
        assert!((m.stddev - 1.0).abs() < 1e-12);
        assert_eq!((m.min, m.max), (1.0, 3.0));
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let m = Metric::from_samples(&[5.0]);
        assert_eq!(m.stddev, 0.0);
        assert_eq!(m.mean, 5.0);
    }

    #[test]
    fn validation_catches_empty_configs() {
        let b = SimBuilder::new(ProtocolKind::Bash);
        assert_eq!(b.validate(), Err(BuildError::MissingWorkload));
        let b = b.locking_microbench(64, Duration::ZERO);
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(
            b.nodes(0).validate(),
            Err(BuildError::Config(ConfigError::ZeroNodes))
        );
    }

    #[test]
    fn validation_catches_misfit_hierarchies() {
        let with = |spec| {
            SimBuilder::new(ProtocolKind::Bash)
                .nodes(16)
                .hierarchy(spec)
                .check_config()
        };
        let err = |e| Err(BuildError::Config(e));
        assert_eq!(
            with(HierarchyConfig::new(0, 4)),
            err(ConfigError::ZeroClusterSize)
        );
        assert_eq!(
            with(HierarchyConfig::new(4, 0)),
            err(ConfigError::ZeroHierarchyBanks)
        );
        assert_eq!(
            with(HierarchyConfig::new(3, 4)),
            err(ConfigError::ClusterSizeMismatch {
                cluster_size: 3,
                nodes: 16,
            })
        );
        assert_eq!(
            with(HierarchyConfig::new(4, 3)),
            err(ConfigError::BankCountMismatch {
                banks: 3,
                nodes: 16
            })
        );
        assert_eq!(with(HierarchyConfig::new(4, 4)), Ok(()));
    }

    #[test]
    fn hierarchy_reaches_the_system_config() {
        let b = SimBuilder::new(ProtocolKind::Snooping)
            .nodes(16)
            .hierarchy(HierarchyConfig::new(4, 2));
        let cfg = b.config(1600, 0);
        let h = cfg.hierarchy.expect("hierarchy configured");
        assert_eq!((h.cluster_size, h.banks), (4, 2));
    }
}
