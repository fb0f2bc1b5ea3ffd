//! The scenario-driven verification harness: drive **any** workload —
//! a catalog scenario, a replayed trace, or anything implementing
//! [`Workload`] — through any protocol with the full invariant suite
//! (value oracle + quiescence + structural sweep) enabled.
//!
//! The harness wraps the workload in a [`CheckedWorkload`], which
//! transparently rewrites every store value with a unique token from the
//! generalized [`Oracle`] (see [`checker`](crate::checker) for why this
//! makes every load exactly attributable) and caps the stream so endless
//! generators reach quiescence. A [`CaptureWorkload`] around it records
//! the instrumented op stream, with completion latencies, into a
//! [`Trace`], so a failing run hands the [`minimize`](crate::minimize)
//! pass a replayable starting point.

use std::cell::RefCell;
use std::rc::Rc;

use bash_adaptive::AdaptorConfig;
use bash_coherence::cache::CacheGeometry;
use bash_coherence::common::{CacheStats, MemStats};
use bash_coherence::{HierarchyConfig, ProcOp, ProtocolKind, TransitionLog};
use bash_kernel::{pool, Duration, Time};
use bash_net::{FaultPlaneConfig, Jitter, NodeId, OrderingMode, TopologyKind};
use bash_sim::{FaultInjection, RunError, System, SystemConfig, WatchdogBudget, WedgeDiagnostic};
use bash_trace::Trace;
use bash_workloads::{catalog, CaptureWorkload, TraceWorkload, WorkItem, Workload};

use crate::checker::{CheckViolation, Oracle};
use crate::harness::sweep_structural;

/// Configuration of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// System size in nodes.
    pub nodes: u16,
    /// Endpoint bandwidth (low values add queueing-driven reordering).
    pub link_mbps: u64,
    /// Interconnect topology under test. Non-crossbar topologies route
    /// hop-by-hop through the fabric engine; the report's
    /// [`ordering`](VerifyReport::ordering) field records whether the
    /// delivery order the protocols saw was the interconnect's native
    /// total order or a resequenced one.
    pub topology: TopologyKind,
    /// Master seed (workload construction and jitter).
    pub seed: u64,
    /// Per-node op cap applied to endless generators. Trace replays run to
    /// the end of the trace regardless.
    pub ops_per_node: u64,
    /// Message-latency jitter; `None` disables perturbation.
    pub jitter: Option<Jitter>,
    /// L2 geometry — small by default so the hot set thrashes it,
    /// exercising evictions and writeback races.
    pub cache: CacheGeometry,
    /// Deliberate fault injection (harness self-tests only).
    pub fault: Option<FaultInjection>,
    /// Deterministic link-fault plane for the routed fabric (drops,
    /// corruption, outages — with or without the reliable transport).
    /// Requires a non-crossbar [`topology`](Self::topology).
    pub fault_plane: Option<FaultPlaneConfig>,
    /// Quiescence watchdog: converts a wedged run into a structured
    /// [`WedgeDiagnostic`] on the report instead of spinning forever.
    pub watchdog: Option<WatchdogBudget>,
    /// Two-level hierarchy shape (snooping clusters under a sharded
    /// directory spine); `None` verifies the flat organization. Both
    /// counts must divide [`nodes`](Self::nodes).
    pub hierarchy: Option<HierarchyConfig>,
    /// The adaptive mechanism's parameters (BASH's decision mode and
    /// initial policy steer how often requests unicast and retry).
    pub adaptor: AdaptorConfig,
    /// BASH home retry-buffer capacity (1 forces the nack path).
    pub retry_capacity: usize,
}

impl VerifyConfig {
    /// The hostile default for `protocol`: 4 nodes, 800 MB/s, a tiny
    /// thrashing cache, jitter on, 400 ops per node.
    pub fn new(protocol: ProtocolKind, seed: u64) -> Self {
        // The adaptor and retry buffer default to the paper system's.
        let paper = SystemConfig::paper_default(protocol, 4, 800);
        VerifyConfig {
            protocol,
            nodes: 4,
            link_mbps: 800,
            topology: TopologyKind::Crossbar,
            seed,
            ops_per_node: 400,
            jitter: Some(Jitter::Uniform {
                injection_max: Duration::from_ns(200),
                traversal_max: Duration::from_ns(400),
                seed: seed ^ 0x7157,
            }),
            cache: CacheGeometry { sets: 4, ways: 2 },
            fault: None,
            fault_plane: None,
            watchdog: None,
            hierarchy: None,
            adaptor: paper.adaptor,
            retry_capacity: paper.retry_capacity,
        }
    }

    /// The `SystemConfig` a verification run under this config uses.
    /// Transition coverage is always on; it feeds Table 1.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(self.protocol, self.nodes, self.link_mbps)
            .with_topology(self.topology)
            .with_seed(self.seed)
            .with_cache(self.cache)
            .with_adaptor(self.adaptor.clone())
            .with_coverage();
        cfg.retry_capacity = self.retry_capacity;
        if let Some(jitter) = &self.jitter {
            cfg = cfg.with_jitter(jitter.clone());
        }
        if let Some(plane) = &self.fault_plane {
            cfg = cfg.with_fault_plane(plane.clone());
        }
        if let Some(budget) = self.watchdog {
            cfg = cfg.with_watchdog(budget);
        }
        if let Some(h) = self.hierarchy {
            cfg = cfg.with_hierarchy(h);
        }
        cfg.fault = self.fault;
        cfg
    }
}

/// The outcome of one verification run.
#[derive(Debug, PartialEq)]
pub struct VerifyReport {
    /// Workload display name.
    pub workload: String,
    /// Protocol that was verified.
    pub protocol: ProtocolKind,
    /// System size in nodes.
    pub nodes: u16,
    /// How the interconnect provided the total order the protocols
    /// consumed: natively (crossbar, star) or resequenced at the edges
    /// (line, ring, mesh, torus). The invariant suite holds either way —
    /// that is the point of checking both.
    pub ordering: OrderingMode,
    /// Operations the workload issued.
    pub ops: u64,
    /// Loads validated against the oracle.
    pub loads_checked: u64,
    /// Stores applied through the oracle.
    pub stores_applied: u64,
    /// Distinct blocks the run touched (structural-sweep coverage).
    pub blocks_touched: usize,
    /// Locations with more than one writer: those get the weaker
    /// per-writer-order checks, so 0 means the whole run was checked
    /// with single-writer exactness.
    pub multi_writer_locations: usize,
    /// All violations (empty = pass): what the oracle saw during the run,
    /// then, for a run that did not finish, its one run error — the wedge
    /// diagnostic or the protocol violation that ended it — then what the
    /// structural sweep found.
    pub violations: Vec<CheckViolation>,
    /// The structured diagnostic when the run wedged — a watchdog budget
    /// trip, or a drained queue that never reached quiescence (reported
    /// even with no watchdog armed). The matching violation text is also
    /// in [`violations`](Self::violations), so `passed()` still tells the
    /// whole truth. `None` on runs that reached quiescence, and on runs a
    /// protocol violation ended (its text is in `violations` alone).
    pub wedge: Option<WedgeDiagnostic>,
    /// The instrumented op stream the run executed, each completed op
    /// stamped with its issue→complete latency — replay it through
    /// [`run_verify_trace`] to reproduce this verdict, or feed it to
    /// [`minimize_trace`](crate::minimize::minimize_trace) on failure.
    pub trace: Trace,
    /// Transition coverage of every cache controller, merged.
    pub cache_log: TransitionLog,
    /// Transition coverage of every memory controller, merged.
    pub mem_log: TransitionLog,
    /// Whole-run cache-controller statistics, summed over nodes.
    pub cache_stats: CacheStats,
    /// Whole-run memory-controller statistics, summed over nodes.
    pub mem_stats: MemStats,
}

impl VerifyReport {
    /// True when no violations were found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation's description, for error messages.
    pub fn first_violation(&self) -> Option<&str> {
        self.violations.first().map(|v| v.what.as_str())
    }
}

/// Wraps any workload for verification: caps the per-node stream and
/// rewrites every store value with a unique oracle token, making each
/// load's return value exactly attributable. Completions are forwarded to
/// the inner workload (catalog scenarios are completion-independent by
/// contract, so the rewritten values never change the stream).
pub struct CheckedWorkload<W> {
    inner: W,
    cap: u64,
    issued: Vec<u64>,
    oracle: Rc<RefCell<Oracle>>,
}

impl<W: Workload> CheckedWorkload<W> {
    /// Wraps `inner`, capping every node at `cap` ops.
    pub fn new(inner: W, nodes: u16, cap: u64, oracle: Rc<RefCell<Oracle>>) -> Self {
        assert!(cap > 0, "a verification run needs at least one op per node");
        CheckedWorkload {
            inner,
            cap,
            issued: vec![0; nodes as usize],
            oracle,
        }
    }
}

impl<W: Workload> Workload for CheckedWorkload<W> {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        if self.issued[node.index()] >= self.cap {
            return None;
        }
        let mut item = self.inner.next_item(node, now)?;
        self.issued[node.index()] += 1;
        if let ProcOp::Store { block, word, .. } = item.op {
            let token = self.oracle.borrow_mut().issue_store(node, block, word);
            item.op = ProcOp::Store {
                block,
                word,
                value: token,
            };
        }
        Some(item)
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        self.oracle.borrow_mut().observe(node, now, op, value);
        self.inner.on_complete(node, now, op, value);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs one workload through the full invariant suite to quiescence.
/// The capture records completions, so every verification trace doubles
/// as input to the differential latency pass.
pub fn run_verify<W: Workload>(cfg: &VerifyConfig, workload: W) -> VerifyReport {
    let oracle = Rc::new(RefCell::new(Oracle::new()));
    let checked = CheckedWorkload::new(workload, cfg.nodes, cfg.ops_per_node, Rc::clone(&oracle));
    let captured = CaptureWorkload::new(checked, cfg.nodes, cfg.seed, true);
    let mut system = System::new(cfg.system_config(), captured);
    // `try_run_to_idle` returns `Ok` only on a quiescent system, so its
    // error is the one report of a run that did not finish.
    let outcome = system.try_run_to_idle();
    {
        let mut o = oracle.borrow_mut();
        if let Err(err) = &outcome {
            o.report(err.to_string());
        }
        sweep_structural(&system, &mut o);
    }
    let wedge = match outcome {
        Err(RunError::Wedged(diag)) => Some(*diag),
        _ => None,
    };

    let (mut cache_log, mut cache_stats) = (TransitionLog::new(), CacheStats::default());
    for c in system.caches() {
        cache_log.merge(c.log());
        cache_stats.merge(c.stats());
    }
    let (mut mem_log, mut mem_stats) = (TransitionLog::new(), MemStats::default());
    for m in system.mems() {
        mem_log.merge(m.log());
        mem_stats.merge(m.stats());
    }
    let ordering = system.ordering();
    let trace = system.workload_mut().take_trace();
    let workload_name = trace.workload.clone();
    let ops = trace.records.len() as u64;
    drop(system); // releases the workload's clone of the oracle
    let oracle = Rc::try_unwrap(oracle)
        .expect("workload dropped with the system")
        .into_inner();
    VerifyReport {
        workload: workload_name,
        protocol: cfg.protocol,
        nodes: cfg.nodes,
        ordering,
        ops,
        loads_checked: oracle.loads_checked(),
        stores_applied: oracle.stores_applied(),
        blocks_touched: oracle.touched_blocks().len(),
        multi_writer_locations: oracle.multi_writer_locations(),
        violations: oracle.violations().to_vec(),
        wedge,
        trace,
        cache_log,
        mem_log,
        cache_stats,
        mem_stats,
    }
}

/// Verifies a named catalog scenario under `cfg`.
///
/// # Panics
///
/// Panics on an unknown scenario name (the facade validates names before
/// calling in; direct callers can check `catalog::find` first).
pub fn run_verify_scenario(cfg: &VerifyConfig, scenario: &str) -> VerifyReport {
    let workload = catalog::build(scenario, cfg.nodes, cfg.seed)
        .unwrap_or_else(|| panic!("unknown scenario {scenario:?}"));
    run_verify(cfg, workload)
}

/// Replays a captured trace under `cfg` with checks enabled. The trace's
/// node count overrides `cfg.nodes`, and the whole trace runs (no op cap):
/// this is the reproduction path for minimized failure traces.
pub fn run_verify_trace(cfg: &VerifyConfig, trace: &Trace) -> VerifyReport {
    let mut cfg = cfg.clone();
    cfg.nodes = trace.nodes;
    cfg.ops_per_node = u64::MAX;
    let replay =
        TraceWorkload::from_trace(trace.clone()).expect("trace validated before verification");
    run_verify(&cfg, replay)
}

/// Runs every catalog scenario × every protocol under the invariant
/// harness and returns the **full reports** (with captured traces),
/// fanning the (scenario × protocol) grid across `threads` worker
/// threads. This is the one source of truth for the matrix enumeration:
/// the experiments `verify` gate builds its CSV and minimization on it.
/// Every cell is an independent, self-seeded simulation, so the reports
/// are **identical at any thread count** — which is itself part of the
/// determinism contract the root test suite enforces.
pub fn verify_catalog_reports(
    nodes: u16,
    seed: u64,
    ops_per_node: u64,
    threads: usize,
) -> Vec<(&'static str, VerifyReport)> {
    let scenarios = catalog::CATALOG;
    let protos = ProtocolKind::ALL;
    let tasks = scenarios.len() * protos.len();
    pool::run_indexed(tasks, threads.max(1), |i| {
        let scenario = &scenarios[i / protos.len()];
        let protocol = protos[i % protos.len()];
        let mut cfg = VerifyConfig::new(protocol, seed);
        cfg.nodes = nodes;
        cfg.ops_per_node = ops_per_node;
        (scenario.name, run_verify_scenario(&cfg, scenario.name))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_verify_passes_and_captures() {
        let cfg = VerifyConfig::new(ProtocolKind::Snooping, 7);
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(report.passed(), "first: {:?}", report.first_violation());
        assert_eq!(report.workload, "migratory");
        assert_eq!(report.ops, 4 * cfg.ops_per_node);
        assert!(report.loads_checked > 0);
        assert!(report.stores_applied > 0);
        assert!(report.blocks_touched > 1);
        assert_eq!(report.trace.records.len() as u64, report.ops);
    }

    #[test]
    fn fabric_topologies_verify_and_report_their_ordering() {
        for (topology, want) in [
            (TopologyKind::Crossbar, OrderingMode::NativeTotalOrder),
            (TopologyKind::Star, OrderingMode::NativeTotalOrder),
            (TopologyKind::Mesh2D, OrderingMode::Resequenced),
        ] {
            let mut cfg = VerifyConfig::new(ProtocolKind::Bash, 21);
            cfg.topology = topology;
            cfg.ops_per_node = 120;
            let report = run_verify_scenario(&cfg, "migratory");
            assert_eq!(report.ordering, want, "{topology:?}");
            assert!(
                report.passed(),
                "{topology:?} first: {:?}",
                report.first_violation()
            );
        }
    }

    #[test]
    fn captured_verify_trace_reproduces_the_verdict() {
        let cfg = VerifyConfig::new(ProtocolKind::Bash, 11);
        let report = run_verify_scenario(&cfg, "false-sharing");
        assert!(report.passed(), "first: {:?}", report.first_violation());
        assert_eq!(
            report.multi_writer_locations, 0,
            "false sharing is single-writer per word by construction"
        );
        let replayed = run_verify_trace(&cfg, &report.trace);
        assert!(replayed.passed(), "first: {:?}", replayed.first_violation());
        assert_eq!(replayed.ops, report.ops);
    }

    #[test]
    fn checked_workload_caps_and_rewrites() {
        use bash_workloads::PatternWorkload;
        let oracle = Rc::new(RefCell::new(Oracle::new()));
        let inner = PatternWorkload::new(2, bash_workloads::PatternParams::false_sharing(), 3);
        let mut wl = CheckedWorkload::new(inner, 2, 5, Rc::clone(&oracle));
        let mut seen = Vec::new();
        while let Some(item) = wl.next_item(NodeId(0), Time::ZERO) {
            match item.op {
                ProcOp::Store { value, .. } => seen.push(value),
                ProcOp::Load { .. } => {}
            }
        }
        assert_eq!(seen.len(), 5, "false sharing is all stores, capped at 5");
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "tokens must be unique");
    }

    #[test]
    fn matrix_is_thread_invariant() {
        let serial = verify_catalog_reports(2, 5, 24, 1);
        let parallel = verify_catalog_reports(2, 5, 24, 4);
        assert!(serial == parallel, "reports must not depend on threads");
        assert_eq!(
            serial.len(),
            catalog::CATALOG.len() * ProtocolKind::ALL.len()
        );
    }
}
