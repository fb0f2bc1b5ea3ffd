//! The system driver: event loop, processors, and measurement.
//!
//! A [`System`] owns the interconnect, one cache controller + one memory
//! controller per node, one blocking processor per node, and the workload.
//! It dispatches five event kinds through one watchdog-guarded loop:
//!
//! * `Inject` — a controller-delayed message enters the node's link queue;
//!   it has sat in the message arena since the controller emitted it, so
//!   the queued event is an 8-byte handle;
//! * `Net` — internal interconnect progress (transmit/traverse/deliver);
//! * `ProcIssue` — a processor finished thinking and issues its operation;
//! * `Sample` — the adaptive mechanism's per-512-cycle utilization sample
//!   (BASH only), which reads links through the interconnect's link view;
//! * `Redeliver` — a fault-injected duplicate delivery.
//!
//! Warmup/measurement follows the paper: run to steady state, snapshot all
//! counters, measure, report deltas.

use bash_coherence::common::{CacheStats, MemStats};
use bash_coherence::{
    route, AccessOutcome, Action, ActionSink, CacheCtrl, MemCtrl, Owner, ProcOp, ProtoMsg,
    ProtocolKind, TxnId, Violation,
};
use bash_kernel::stats::{RunningStat, WindowDelta};
use bash_kernel::{Duration, EventQueue, Time};
use bash_net::{
    FaultStats, Interconnect, Jitter, MsgArena, MsgRef, NetConfig, NetEvent, NetStep, NodeId,
    Ordered, OrderingMode,
};
use bash_trace::{Trace, TraceCapture, TraceRecord};
use bash_workloads::{WorkItem, Workload};

use crate::config::{SystemConfig, WatchdogBudget};
use crate::fault_injector::{Admit, FaultInjector, Verdict};
use crate::stats::{HierarchyStats, LinkStat, RunStats};

/// Why the quiescence watchdog declared a run wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WedgeCause {
    /// The event queue drained but the system never reached quiescence —
    /// some transaction is waiting on a message that will never arrive.
    Stalled,
    /// The run processed more events than [`WatchdogBudget::max_events`].
    EventBudget {
        /// The configured event budget.
        limit: u64,
    },
    /// The run advanced past [`WatchdogBudget::max_virtual_time`].
    TimeBudget {
        /// The configured virtual-time budget.
        limit: Duration,
    },
}

impl std::fmt::Display for WedgeCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WedgeCause::Stalled => write!(f, "stalled (queue drained, not quiescent)"),
            WedgeCause::EventBudget { limit } => write!(f, "event budget ({limit}) exceeded"),
            WedgeCause::TimeBudget { limit } => write!(f, "virtual-time budget ({limit}) exceeded"),
        }
    }
}

/// Structured diagnostic of a wedged run: what stalled, where, and what
/// the interconnect's fault plane was doing at the time.
#[derive(Debug, Clone, PartialEq)]
pub struct WedgeDiagnostic {
    /// What tripped the watchdog.
    pub cause: WedgeCause,
    /// Virtual time at detection.
    pub at: Time,
    /// Total events processed when the watchdog fired.
    pub events_processed: u64,
    /// Events still queued (in-flight messages and timers).
    pub queue_len: usize,
    /// Nodes whose processor is stuck on an outstanding miss.
    pub pending_nodes: Vec<u16>,
    /// Nodes whose cache controller holds an unfinished transaction.
    pub busy_caches: Vec<u16>,
    /// Nodes whose memory controller holds an unfinished transaction.
    pub busy_mems: Vec<u16>,
    /// Fault-plane counters at detection (drops, retransmits, dead
    /// links, undeliverable copies), when a fault plane is configured.
    pub fault: Option<FaultStats>,
}

impl std::fmt::Display for WedgeDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Wedged: {} at {} after {} events; {} queued; \
             pending procs {:?}, busy caches {:?}, busy mems {:?}",
            self.cause,
            self.at,
            self.events_processed,
            self.queue_len,
            self.pending_nodes,
            self.busy_caches,
            self.busy_mems,
        )?;
        if let Some(fs) = &self.fault {
            write!(
                f,
                "; fault plane: dropped={} corrupted={} down_drops={} retransmits={} \
                 dead_links={} rerouted={} undeliverable={}",
                fs.dropped,
                fs.corrupted,
                fs.down_drops,
                fs.retransmits,
                fs.dead_links,
                fs.rerouted,
                fs.undeliverable,
            )?;
        }
        Ok(())
    }
}

/// A structured run failure (see [`System::try_run_to_idle`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The run wedged: a watchdog budget expired, or the event queue
    /// drained without the system reaching quiescence.
    Wedged(Box<WedgeDiagnostic>),
    /// A controller rejected a delivery that breaks the protocols'
    /// delivery contract; the run ended after the event that made it.
    ProtocolViolation {
        /// Virtual time of the rejected delivery.
        at: Time,
        /// What was rejected, where.
        violation: Violation,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Wedged(d) => d.fmt(f),
            RunError::ProtocolViolation { at, violation } => {
                write!(f, "Protocol violation at {at}: {violation}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Driver events. Every payload lives in the message arena, so an event
/// is a few handles and ids; `event_sizes_stay_compact` pins the size.
#[derive(Debug)]
enum Event {
    /// Interconnect-internal progress.
    Net(NetEvent<ProtoMsg>),
    /// A message enters the sender's link queue (after controller latency).
    /// The handle carries the one arena reference taken at emission.
    Inject(MsgRef),
    /// A processor issues its queued operation.
    ProcIssue(NodeId),
    /// Adaptive-mechanism sampling tick (all nodes).
    Sample,
    /// Fault injection: a duplicated copy of `msg` arrives at `dst`'s
    /// memory controller ([`crate::FaultInjection::DuplicateDeliveries`]). The
    /// handle carries a retained arena reference, released on delivery.
    Redeliver {
        dst: NodeId,
        msg: MsgRef,
        order: Option<u64>,
    },
}

/// Appends one pulled work item to the capture hook, if it is enabled.
fn capture_item(capture: &mut Option<TraceCapture>, node: NodeId, item: &WorkItem) {
    if let Some(writer) = capture {
        writer.record(TraceRecord {
            node,
            think: item.think,
            instructions: item.instructions,
            op: item.op,
            completion: None,
        });
    }
}

/// An outstanding demand miss at a processor.
#[derive(Debug)]
struct PendingMiss {
    op: ProcOp,
    instructions: u64,
    issued_at: Time,
    txn: TxnId,
}

/// A blocking processor.
#[derive(Debug, Default)]
struct Processor {
    queued: Option<WorkItem>,
    pending: Option<PendingMiss>,
    done: bool,
}

/// Cumulative driver-side counters (snapshotted for measurement windows).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    ops: u64,
    retired: u64,
}

#[derive(Debug, Clone, Default)]
struct Snapshot {
    at: Time,
    counters: Counters,
    cache: CacheStats,
    mem: MemStats,
    /// Per-link `(busy_ps, bytes, messages)`, in the interconnect's link
    /// order.
    links: Vec<(u64, u64, u64)>,
    events: u64,
    /// Hierarchy traffic counters `(intra_bytes, inter_bytes)` (zero
    /// without a hierarchy).
    hier_bytes: (u64, u64),
    /// Per-spine-bank request counts (empty without a hierarchy).
    hier_banks: Vec<u64>,
}

/// A running simulated system.
pub struct System<W: Workload> {
    cfg: SystemConfig,
    net: Interconnect<ProtoMsg>,
    caches: Vec<CacheCtrl>,
    mems: Vec<MemCtrl>,
    procs: Vec<Processor>,
    workload: W,
    events: EventQueue<Event>,
    /// The in-flight message slab shared with the interconnect: payloads
    /// live here from emission until the last delivery consumes them.
    arena: MsgArena<ProtoMsg>,
    now: Time,
    /// Reusable action buffer shared by every controller handler call —
    /// the zero-allocation half of the hot event loop.
    sink: ActionSink,
    /// Reusable interconnect step buffer (schedule + deliveries) — the
    /// other half.
    net_step: NetStep<ProtoMsg>,
    /// One sampling-window tracker per link, advanced once per tick.
    link_deltas: Vec<WindowDelta>,
    /// Reusable buffers of the sampling tick: each link's busy time over
    /// the window, then each node's adaptor input.
    link_busy: Vec<u64>,
    node_busy: Vec<u64>,
    counters: Counters,
    miss_latency: RunningStat,
    measuring: bool,
    measure_start: Snapshot,
    policy_trace: Option<Vec<(Time, f64)>>,
    delivery_trace: Option<Vec<String>>,
    /// The op-capture hook (enabled with [`SystemConfig::with_capture`]):
    /// every work item the workload hands a processor is appended here, in
    /// issue-request order, producing a replayable reference trace. With
    /// [`SystemConfig::capture_completions`] each record is additionally
    /// stamped with its issue→complete latency as the op finishes.
    op_capture: Option<TraceCapture>,
    /// The configured [`crate::FaultInjection`] at run time (`None` in every
    /// normal run).
    fault: Option<FaultInjector>,
    /// The first delivery a controller rejected, and when; the run loop
    /// ends the run on it.
    violation: Option<(Time, Violation)>,
    /// Bytes delivered inside the sender's cluster (hierarchy runs only).
    hier_intra_bytes: u64,
    /// Bytes delivered across a cluster boundary (hierarchy runs only).
    hier_inter_bytes: u64,
    /// Coherence requests handled per directory-spine bank (empty unless
    /// a hierarchy is configured).
    hier_bank_requests: Vec<u64>,
}

impl<W: Workload> System<W> {
    /// Builds and primes the system: every processor fetches its first work
    /// item.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text if
    /// [`SystemConfig::check`] rejects the configuration.
    pub fn new(mut cfg: SystemConfig, mut workload: W) -> Self {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        let nodes = cfg.nodes;
        let mut net_cfg = NetConfig::new(nodes, cfg.link_mbps);
        net_cfg.traversal = cfg.traversal;
        net_cfg.broadcast_cost_multiplier = cfg.broadcast_cost_multiplier;
        // The interconnect is the sole consumer of the jitter and fault
        // plane, so it takes ownership instead of a per-run clone; both
        // stay reachable through `net.config()`.
        net_cfg.jitter = std::mem::replace(&mut cfg.jitter, Jitter::None);
        net_cfg.topology = cfg.topology;
        net_cfg.fault = cfg.fault_plane.take();
        let net = Interconnect::new(net_cfg);

        let caches: Vec<CacheCtrl> = (0..nodes)
            .map(|i| {
                CacheCtrl::new(
                    cfg.protocol,
                    NodeId(i),
                    nodes,
                    cfg.cache_geometry,
                    cfg.cache_provide_latency,
                    // Each ordered-network cache builds its adaptor from a
                    // copy carrying its personality's decision mode; the
                    // flat Directory ignores it.
                    &cfg.adaptor,
                    cfg.hierarchy,
                    cfg.coverage,
                )
            })
            .collect();
        let mems: Vec<MemCtrl> = (0..nodes)
            .map(|i| {
                MemCtrl::new(
                    cfg.protocol,
                    NodeId(i),
                    nodes,
                    cfg.dram_latency,
                    cfg.retry_capacity,
                    cfg.hierarchy,
                    cfg.coverage,
                )
            })
            .collect();

        let mut events = EventQueue::new();
        let mut procs: Vec<Processor> = (0..nodes).map(|_| Processor::default()).collect();
        // Capture must start before priming: the first item per node is
        // pulled here, not in `fetch_next`.
        let mut op_capture = cfg
            .capture_ops
            .then(|| TraceCapture::new(nodes, cfg.seed, workload.name()));
        for i in 0..nodes {
            let node = NodeId(i);
            match workload.next_item(node, Time::ZERO) {
                Some(item) => {
                    capture_item(&mut op_capture, node, &item);
                    let at = Time::ZERO + item.think;
                    procs[i as usize].queued = Some(item);
                    events.schedule(at, Event::ProcIssue(node));
                }
                None => procs[i as usize].done = true,
            }
        }
        if cfg.protocol == ProtocolKind::Bash {
            let interval = Duration::from_cycles(cfg.adaptor.sampling_interval_cycles);
            events.schedule(Time::ZERO + interval, Event::Sample);
        }

        System {
            link_deltas: vec![WindowDelta::new(); net.link_count()],
            link_busy: Vec::with_capacity(net.link_count()),
            node_busy: Vec::with_capacity(nodes as usize),
            net,
            caches,
            mems,
            procs,
            workload,
            events,
            arena: MsgArena::with_capacity((nodes as usize * 4).max(16)),
            now: Time::ZERO,
            sink: ActionSink::with_capacity(16),
            net_step: NetStep::new(),
            counters: Counters::default(),
            miss_latency: RunningStat::new(),
            measuring: false,
            measure_start: Snapshot::default(),
            policy_trace: None,
            delivery_trace: None,
            op_capture,
            fault: cfg.fault.map(|f| FaultInjector::new(f, nodes)),
            violation: None,
            hier_intra_bytes: 0,
            hier_inter_bytes: 0,
            hier_bank_requests: cfg
                .hierarchy
                .map(|h| vec![0; h.banks as usize])
                .unwrap_or_default(),
            cfg,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The workload (for domain metrics like lock acquires).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Mutable workload access (verification harnesses drain recorded
    /// observations out of their workload wrappers after a run).
    pub fn workload_mut(&mut self) -> &mut W {
        &mut self.workload
    }

    /// The cache controllers (tester invariant checks).
    pub fn caches(&self) -> &[CacheCtrl] {
        &self.caches
    }

    /// The memory controllers (tester invariant checks).
    pub fn mems(&self) -> &[MemCtrl] {
        &self.mems
    }

    /// Enables recording of the mean policy-counter value over time
    /// (sampled at every adaptive tick; see the `adaptive_phases` example).
    pub fn enable_policy_trace(&mut self) {
        self.policy_trace = Some(Vec::new());
    }

    /// The recorded policy trace, if enabled.
    pub fn policy_trace(&self) -> Option<&[(Time, f64)]> {
        self.policy_trace.as_deref()
    }

    /// Enables recording a human-readable line per message delivery (used
    /// by the Figure 4 protocol walkthroughs).
    pub fn enable_delivery_trace(&mut self) {
        self.delivery_trace = Some(Vec::new());
    }

    /// The recorded delivery trace, if enabled.
    pub fn delivery_trace(&self) -> Option<&[String]> {
        self.delivery_trace.as_deref()
    }

    /// Finalizes and takes the captured reference trace, or `None` when
    /// capture was not enabled. The trace header carries the run's node
    /// count, seed and workload name, so replaying it through
    /// `TraceWorkload` reproduces this run exactly (same config, any
    /// thread count).
    pub fn take_captured_trace(&mut self) -> Option<Trace> {
        let mut writer = self.op_capture.take()?;
        // The workload may refine its display name as it runs; stamp the
        // final one so replay reports stay name-identical.
        writer.set_workload(self.workload.name());
        Some(writer.finish())
    }

    /// Checks the configured watchdog budgets against the next event's
    /// time; returns the tripped cause, if any.
    fn watchdog_tripped(&self, next: Time) -> Option<WedgeCause> {
        let WatchdogBudget {
            max_events,
            max_virtual_time,
        } = self.cfg.watchdog?;
        if let Some(limit) = max_events {
            if self.events.events_processed() >= limit {
                return Some(WedgeCause::EventBudget { limit });
            }
        }
        if let Some(limit) = max_virtual_time {
            if next > Time::ZERO + limit {
                return Some(WedgeCause::TimeBudget { limit });
            }
        }
        None
    }

    /// Builds the structured wedge diagnostic for the current state.
    fn wedged(&self, cause: WedgeCause) -> RunError {
        fn stuck(it: impl Iterator<Item = bool>) -> Vec<u16> {
            it.enumerate()
                .filter(|&(_, busy)| busy)
                .map(|(i, _)| i as u16)
                .collect()
        }
        RunError::Wedged(Box::new(WedgeDiagnostic {
            cause,
            at: self.now,
            events_processed: self.events.events_processed(),
            queue_len: self.events.len(),
            pending_nodes: stuck(self.procs.iter().map(|p| p.pending.is_some())),
            busy_caches: stuck(self.caches.iter().map(|c| !c.is_quiescent())),
            busy_mems: stuck(self.mems.iter().map(|m| !m.is_quiescent())),
            fault: self.net.fault_stats(),
        }))
    }

    /// The one event loop: dispatches every event up to `until`
    /// (inclusive) one at a time, so the watchdog sees each one (see
    /// `docs/ENGINE.md`, "One run loop"). A queue that drains while the
    /// system is not quiescent is a [`WedgeCause::Stalled`] wedge: nothing
    /// can happen again, so coasting on would measure a dead system. A
    /// delivery a controller rejected ends the run right after the event
    /// that made it, as a [`RunError::ProtocolViolation`].
    fn run_events(&mut self, until: Time) -> Result<(), RunError> {
        loop {
            while let Some(next) = self.events.peek_time() {
                if next > until {
                    return Ok(());
                }
                if let Some(cause) = self.watchdog_tripped(next) {
                    return Err(self.wedged(cause));
                }
                let (now, ev) = self.events.pop().expect("peeked");
                self.now = now;
                self.dispatch(ev);
                self.check_violation()?;
            }
            // Under ReorderOrdered a partial window can be parked in the
            // per-node hold-back buffers with no event left to release it;
            // flush and keep draining until both are empty.
            if !self.flush_reordered() {
                break;
            }
            self.check_violation()?;
        }
        if self.is_quiescent() {
            Ok(())
        } else {
            Err(self.wedged(WedgeCause::Stalled))
        }
    }

    /// The first rejected delivery, as the error that ends the run.
    fn check_violation(&self) -> Result<(), RunError> {
        match self.violation {
            None => Ok(()),
            Some((at, violation)) => Err(RunError::ProtocolViolation { at, violation }),
        }
    }

    /// Drains every pending event, converting any wedge — a budget
    /// overrun, or a drained queue that never reached quiescence — into a
    /// structured [`RunError::Wedged`] diagnostic instead of hanging or
    /// silently stopping short.
    pub fn try_run_to_idle(&mut self) -> Result<(), RunError> {
        self.run_events(Time::MAX)
    }

    /// Advances simulation to `t` unless a watchdog budget trips or the
    /// system stalls first (see [`Self::try_run_to_idle`]). A finite
    /// workload that completed is quiescent and just stops early.
    pub fn try_run_until(&mut self, t: Time) -> Result<(), RunError> {
        self.run_events(t)?;
        self.now = self.now.max(t);
        Ok(())
    }

    /// Releases every delivery still held in the reorder windows, newest
    /// first (same release order as a full window). Returns true when
    /// anything was released.
    fn flush_reordered(&mut self) -> bool {
        let Some(fault) = &mut self.fault else {
            return false;
        };
        let held = fault.flush();
        let any = !held.is_empty();
        for (dst, msg, order) in held {
            self.deliver_now(dst, msg, order);
        }
        any
    }

    /// The delivery-ordering capability of the configured interconnect:
    /// the crossbar and single-hop star order natively; multi-hop fabric
    /// topologies re-sequence ordered messages at the endpoints.
    pub fn ordering(&self) -> OrderingMode {
        self.net.ordering()
    }

    /// True when every controller has no transaction in flight.
    pub fn is_quiescent(&self) -> bool {
        self.procs.iter().all(|p| p.pending.is_none())
            && self.caches.iter().all(|c| c.is_quiescent())
            && self.mems.iter().all(|m| m.is_quiescent())
    }

    /// Starts the measurement window: snapshots all counters and resets the
    /// latency statistics.
    pub fn begin_measurement(&mut self) {
        self.measuring = true;
        self.miss_latency = RunningStat::new();
        self.measure_start = self.snapshot();
    }

    /// Runs until `t_end` and returns the measured-window statistics,
    /// unless the run wedges first (see [`Self::try_run_until`]).
    pub fn try_finish(&mut self, t_end: Time) -> Result<RunStats, RunError> {
        self.try_run_until(t_end)?;
        Ok(self.collect_stats())
    }

    /// Closes the measurement window and computes the window deltas.
    fn collect_stats(&mut self) -> RunStats {
        assert!(self.measuring, "begin_measurement was not called");
        let end = self.snapshot();
        let start = &self.measure_start;
        let window = end.at.since(start.at);
        // A zero window has zero busy time, so its fractions come out 0.
        let window_ps = window.as_ps().max(1) as f64;
        let (mut busy, mut bytes) = (0, 0);
        let mut links = Vec::new();
        for (i, (&(b, y, m), &(sb, sy, sm))) in end.links.iter().zip(&start.links).enumerate() {
            busy += b - sb;
            bytes += y - sy;
            if let Some((from, to)) = self.net.link_endpoints(i) {
                links.push(LinkStat {
                    from,
                    to,
                    bytes: y - sy,
                    messages: m - sm,
                    peak_demand: self.net.link_peak_demand(i),
                    busy_fraction: (b - sb) as f64 / window_ps,
                });
            }
        }
        // Utilization normalizes over the contended resources: the
        // crossbar's per-node endpoint links, or the fabric's directed links.
        let util = busy as f64 / (window_ps * end.links.len() as f64);
        RunStats {
            protocol: self.cfg.protocol.name(),
            workload: self.workload.name().to_string(),
            duration: window,
            ops_completed: end.counters.ops - start.counters.ops,
            retired_instructions: end.counters.retired - start.counters.retired,
            misses: end.cache.misses - start.cache.misses,
            hits: end.cache.hits - start.cache.hits,
            sharing_misses: end.cache.sharing_misses - start.cache.sharing_misses,
            avg_miss_latency_ns: self.miss_latency.mean(),
            stddev_miss_latency_ns: self.miss_latency.stddev(),
            max_miss_latency_ns: self.miss_latency.max().unwrap_or(0.0),
            link_utilization: util,
            link_bytes: bytes,
            broadcasts: end.cache.broadcasts_sent - start.cache.broadcasts_sent,
            unicasts: end.cache.unicasts_sent - start.cache.unicasts_sent,
            writebacks: end.cache.writebacks - start.cache.writebacks,
            retries: end.mem.retries_sent - start.mem.retries_sent,
            broadcast_escalations: end.mem.broadcast_escalations - start.mem.broadcast_escalations,
            nacks: end.mem.nacks_sent - start.mem.nacks_sent,
            events_processed: end.events - start.events,
            peak_queue_len: self.events.peak_len() as u64,
            links,
            fault: self.net.fault_stats(),
            hierarchy: self.cfg.hierarchy.map(|h| HierarchyStats {
                clusters: h.clusters(self.cfg.nodes),
                banks: h.banks,
                intra_cluster_bytes: end.hier_bytes.0 - start.hier_bytes.0,
                inter_cluster_bytes: end.hier_bytes.1 - start.hier_bytes.1,
                bank_requests: end
                    .hier_banks
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| b - start.hier_banks.get(i).copied().unwrap_or(0))
                    .collect(),
            }),
        }
    }

    /// Convenience: build, warm up, measure, report.
    pub fn run(
        cfg: SystemConfig,
        workload: W,
        warmup: Duration,
        measure: Duration,
    ) -> Result<RunStats, RunError> {
        let mut sys = System::new(cfg, workload);
        sys.try_run_until(Time::ZERO + warmup)?;
        sys.begin_measurement();
        sys.try_finish(Time::ZERO + warmup + measure)
    }

    fn snapshot(&self) -> Snapshot {
        let net = &self.net;
        let mut cache = CacheStats::default();
        for c in &self.caches {
            cache.merge(c.stats());
        }
        let mut mem = MemStats::default();
        for m in &self.mems {
            mem.merge(m.stats());
        }
        Snapshot {
            at: self.now,
            counters: self.counters,
            cache,
            mem,
            links: (0..net.link_count())
                .map(|i| {
                    let link = net.link(i);
                    let busy = link.busy.busy_time_until(self.now).as_ps();
                    (busy, link.bytes, link.messages)
                })
                .collect(),
            events: self.events.events_processed(),
            hier_bytes: (self.hier_intra_bytes, self.hier_inter_bytes),
            hier_banks: self.hier_bank_requests.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Event) {
        match ev {
            // The interconnect appends to the step buffer where it sits in
            // `self` (disjoint field borrows): moving the buffer out and
            // back around the call would cost a reload on every event.
            Event::Inject(msg) => {
                self.net
                    .inject(self.now, msg, &mut self.arena, &mut self.net_step);
                self.absorb_net();
            }
            Event::Net(ne) => {
                self.net
                    .handle(self.now, ne, &mut self.arena, &mut self.net_step);
                self.absorb_net();
            }
            Event::ProcIssue(node) => self.proc_issue(node),
            Event::Sample => self.sample(),
            Event::Redeliver { dst, msg, order } => self.redeliver(dst, msg, order),
        }
    }

    /// Schedules what the interconnect step produced, then consumes its
    /// deliveries in order and empties the buffer. Deliveries are walked
    /// by index in place: delivering never calls back into the
    /// interconnect, so nothing appends to them meanwhile.
    fn absorb_net(&mut self) {
        for (t, e) in self.net_step.schedule.drain(..) {
            self.events.schedule(t, Event::Net(e));
        }
        let n = self.net_step.deliveries.len();
        for i in 0..n {
            let d = &self.net_step.deliveries[i];
            let (dst, msg, order) = (d.dst, d.msg, d.order);
            self.deliver(dst, msg, order);
        }
        debug_assert_eq!(
            self.net_step.deliveries.len(),
            n,
            "a delivery reached back into the interconnect"
        );
        self.net_step.deliveries.clear();
    }

    /// Delivers the fault-injected second copy of a duplicated message to
    /// `dst`'s memory controller. Gated on the home's ownership record:
    /// the duplicate fires only when *another* cache has become the owner
    /// since the original, so the home re-runs an ownership transfer that
    /// corrupts the record out from under the real owner. (A duplicate the
    /// home would treat as idempotent proves nothing about the oracle.)
    /// The message is read in place; the reference retained at schedule
    /// time is released afterwards.
    fn redeliver(&mut self, dst: NodeId, mref: MsgRef, order: Option<u64>) {
        let msg = self.arena.get(mref);
        let mem = &mut self.mems[dst.index()];
        let ownership_moved = match &msg.payload {
            ProtoMsg::Request(req) => {
                matches!(mem.owner_record(req.block), Owner::Node(owner) if owner != req.requestor)
            }
            _ => false,
        };
        if ownership_moved {
            // Memory controller only — a real duplicating network would
            // hit the caches too, but the home's directory state is where
            // the duplicate provably corrupts the protocol.
            mem.on_delivery(self.now, msg, order, &mut self.sink);
            self.apply_sink(dst);
        }
        self.arena.release(mref);
    }

    fn deliver(&mut self, dst: NodeId, msg: MsgRef, order: Option<u64>) {
        let Some(fault) = &mut self.fault else {
            return self.deliver_now(dst, msg, order);
        };
        // A held-back delivery parks its arena reference with the handle.
        let ordered = self.arena.get(msg).ordered != Ordered::None;
        match fault.admit(dst, msg, order, ordered) {
            Admit::Pass => self.deliver_now(dst, msg, order),
            Admit::Release(window) => {
                for (m, o) in window {
                    self.deliver_now(dst, m, o);
                }
            }
        }
    }

    /// Consumes one delivery: runs the controllers against the message
    /// where it sits in the arena, applies what they emitted, and
    /// releases the arena reference the delivery transferred to the
    /// driver.
    ///
    /// The cache handler and then the memory handler emit into the one
    /// sink, applied once after both. Neither handler reads anything
    /// applying actions writes (arena, queue, processors, workload), so
    /// this is the order in which per-handler application would apply
    /// them.
    fn deliver_now(&mut self, dst: NodeId, mref: MsgRef, order: Option<u64>) {
        let msg = self.arena.get(mref);
        if let Some(trace) = self.delivery_trace.as_mut() {
            let ord = order.map(|o| format!(" ord={o}")).unwrap_or_default();
            trace.push(format!(
                "{:>9} {} -> {} {:?} dests={}{}",
                self.now.to_string(),
                msg.src,
                dst,
                msg.payload,
                msg.dests,
                ord
            ));
        }
        let routing = route(
            self.cfg.protocol,
            dst,
            self.cfg.nodes,
            self.cfg.hierarchy.as_ref(),
            msg,
        );
        if let Some(h) = &self.cfg.hierarchy {
            if h.same_cluster(msg.src, dst) {
                self.hier_intra_bytes += u64::from(msg.size);
            } else {
                self.hier_inter_bytes += u64::from(msg.size);
            }
            if routing.to_mem {
                if let ProtoMsg::Request(req) = &msg.payload {
                    self.hier_bank_requests[h.bank_of(req.block) as usize] += 1;
                }
            }
        }
        let verdict = match &mut self.fault {
            None => Verdict::Deliver,
            Some(fault) => fault.verdict(dst, &msg.payload, routing, |block| {
                self.caches[dst.index()].cache().state(block)
            }),
        };
        // A skipped cache never sees the invalidation; its stale copy keeps
        // serving loads. Memory-side routing proceeds untouched.
        if routing.to_cache && verdict != Verdict::SkipCache {
            self.caches[dst.index()].on_delivery(self.now, msg, order, &mut self.sink);
        }
        if routing.to_mem {
            let mem = &mut self.mems[dst.index()];
            mem.on_delivery(self.now, msg, order, &mut self.sink);
            if let (Verdict::ForgetSharer, ProtoMsg::Request(req)) = (verdict, &msg.payload) {
                // The home just recorded the requestor; silently lose it
                // again (sharer bit and, if recorded, ownership).
                mem.fault_forget_sharer(req.block, req.requestor);
            }
        }
        if verdict == Verdict::DuplicateAtHome {
            // Schedule the duplicate well after the original transaction
            // settles — far enough out that ownership of the block has had
            // time to migrate to another cache (`redeliver` re-checks the
            // ownership record then; a same-owner duplicate is idempotent
            // and proves nothing). The duplicate keeps the message alive
            // past this delivery, so it retains a reference.
            self.arena.retain(mref, 1);
            self.events.schedule(
                self.now + Duration::from_ns(20_000),
                Event::Redeliver {
                    dst,
                    msg: mref,
                    order,
                },
            );
        }
        self.apply_sink(dst);
        self.arena.release(mref);
    }

    /// Applies, in push order, the actions the controllers emitted into
    /// the driver's sink.
    fn apply_sink(&mut self, node: NodeId) {
        // Most deliveries (a bystander's snoop) emit nothing.
        if self.sink.is_empty() {
            return;
        }
        // The sink is taken out of `self` while its actions run (borrow
        // discipline) and put back, so its capacity serves every event.
        let mut sink = std::mem::take(&mut self.sink);
        for act in sink.drain() {
            match act {
                Action::SendAfter { delay, msg } => {
                    // The message enters the arena once, here, with one
                    // reference; the interconnect raises it to one per
                    // delivery.
                    let msg = self.arena.alloc(msg, 1);
                    self.events.schedule(self.now + delay, Event::Inject(msg));
                }
                Action::MissDone { txn, value, .. } => self.miss_done(node, txn, value),
                Action::Violation(v) => {
                    self.violation.get_or_insert((self.now, v));
                }
            }
        }
        self.sink = sink;
    }

    fn proc_issue(&mut self, node: NodeId) {
        let idx = node.index();
        let item = self.procs[idx].queued.take().expect("issue without item");
        let outcome = self.caches[idx].access(self.now, item.op, &mut self.sink);
        match outcome {
            AccessOutcome::Hit { value } => {
                self.counters.ops += 1;
                self.counters.retired += item.instructions;
                // A hit completes at issue time in this model: the
                // completion event records a zero latency.
                self.capture_completion(node, Duration::ZERO);
                self.complete_op(node, &item.op, value);
                self.fetch_next(node);
            }
            AccessOutcome::Miss { txn } => {
                self.procs[idx].pending = Some(PendingMiss {
                    op: item.op,
                    instructions: item.instructions,
                    issued_at: self.now,
                    txn,
                });
            }
        }
        self.apply_sink(node);
    }

    fn miss_done(&mut self, node: NodeId, txn: TxnId, value: u64) {
        let idx = node.index();
        let pending = self.procs[idx]
            .pending
            .take()
            .expect("miss completion without pending miss");
        assert_eq!(pending.txn, txn, "completion for the wrong transaction");
        if self.measuring {
            self.miss_latency
                .push(self.now.since(pending.issued_at).as_ps() as f64 / 1000.0);
        }
        self.counters.ops += 1;
        self.counters.retired += pending.instructions;
        self.capture_completion(node, self.now.since(pending.issued_at));
        self.complete_op(node, &pending.op, value);
        self.fetch_next(node);
    }

    /// Stamps the in-flight op's issue→complete latency onto its captured
    /// record, when completion capture is enabled.
    fn capture_completion(&mut self, node: NodeId, latency: Duration) {
        if !self.cfg.capture_completions {
            return;
        }
        if let Some(capture) = &mut self.op_capture {
            capture.record_completion(node, latency);
        }
    }

    /// Reports a completed op to the workload, applying any configured
    /// fault injection to the observed value first.
    fn complete_op(&mut self, node: NodeId, op: &ProcOp, value: u64) {
        let value = match &mut self.fault {
            None => value,
            Some(fault) => fault.observed_value(op, value),
        };
        self.workload.on_complete(node, self.now, op, value);
    }

    fn fetch_next(&mut self, node: NodeId) {
        let idx = node.index();
        match self.workload.next_item(node, self.now) {
            Some(item) => {
                capture_item(&mut self.op_capture, node, &item);
                let at = self.now + item.think;
                self.procs[idx].queued = Some(item);
                self.events.schedule(at, Event::ProcIssue(node));
            }
            None => self.procs[idx].done = true,
        }
    }

    fn sample(&mut self) {
        let interval = Duration::from_cycles(self.cfg.adaptor.sampling_interval_cycles);
        let window = interval.as_ps();
        // Each link's busy time over the window. Under latency jitter a
        // transmission can be credited across a window boundary (up to
        // jitter_max of slop); clamp — boundary slop is measurement noise,
        // exactly as in real sampling hardware.
        let mut link_busy = std::mem::take(&mut self.link_busy);
        link_busy.clear();
        for (i, delta) in self.link_deltas.iter_mut().enumerate() {
            let busy = delta.advance(&self.net.link(i).busy, self.now);
            link_busy.push(busy.as_ps().min(window));
        }
        // A node's input is the mean over its incident links: its own
        // endpoint link on the crossbar, its directed links on the fabric.
        let mut inputs = std::mem::take(&mut self.node_busy);
        inputs.clear();
        for i in 0..self.cfg.nodes {
            let links = self.net.incident_links(NodeId(i));
            let sum: u64 = links.iter().map(|&l| link_busy[l as usize]).sum();
            inputs.push(sum.checked_div(links.len() as u64).unwrap_or(0));
        }
        // Under a hierarchy the adaptive mechanism runs per *cluster*:
        // every member samples the cluster-mean utilization, so a whole
        // cluster flips its cast policy together — the cluster is the
        // broadcast domain, so the bandwidth being protected is the
        // cluster's, not one node's.
        if let Some(h) = &self.cfg.hierarchy {
            for cluster in inputs.chunks_mut(h.cluster_size as usize) {
                let mean = cluster.iter().sum::<u64>() / cluster.len() as u64;
                cluster.fill(mean);
            }
        }
        let mut policy_sum = 0.0;
        let mut policy_n = 0u32;
        for (cache, &busy) in self.caches.iter_mut().zip(&inputs) {
            if let Some(adaptor) = cache.adaptor_mut() {
                adaptor.sample_window(busy, window);
                policy_sum += adaptor.policy_value() as f64;
                policy_n += 1;
            }
        }
        self.link_busy = link_busy;
        self.node_busy = inputs;
        if let Some(trace) = self.policy_trace.as_mut() {
            if policy_n > 0 {
                trace.push((self.now, policy_sum / policy_n as f64));
            }
        }
        // Stop the sampling chain once nothing else is in flight, so
        // `try_run_to_idle` terminates. (Not "once every processor is done":
        // an empty queue already implies that in a fault-free run, and
        // under a broken-network fault a processor can wedge forever on a
        // miss that will never complete — the sampler must not keep the
        // system alive; the harness reports the quiescence failure.)
        let finished = self.events.is_empty();
        if !finished {
            self.events.schedule(self.now + interval, Event::Sample);
        }
    }

    /// The mean unicast probability across all BASH adaptors (0 when not
    /// running BASH).
    pub fn mean_unicast_probability(&mut self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for c in self.caches.iter_mut() {
            if let Some(a) = c.adaptor_mut() {
                sum += a.unicast_probability();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use bash_adaptive::AdaptorConfig;
    use bash_coherence::{BlockAddr, CacheGeometry, HierarchyConfig};
    use bash_net::{FaultPlaneConfig, TopologyKind};
    use bash_workloads::LockingMicrobench;

    use super::*;

    /// Queued events are the calendar's unit of memory: each one is a few
    /// words because every payload lives in the message arena.
    #[test]
    fn event_sizes_stay_compact() {
        const RULE: &str = "a message enters the MsgArena when a controller emits it, \
            and queued events carry its MsgRef; no Event or NetEvent variant may carry \
            a payload by value";
        let event = size_of::<Event>();
        assert!(event <= 40, "Event is {event} B (limit 40): {RULE}");
        let net = size_of::<NetEvent<ProtoMsg>>();
        assert!(
            net <= 32,
            "NetEvent<ProtoMsg> is {net} B (limit 32): {RULE}"
        );
    }

    /// `LockingMicrobench` cut off after a fixed number of items per node,
    /// so a run drains to idle.
    struct Capped {
        inner: LockingMicrobench,
        left: Vec<u32>,
    }

    impl Workload for Capped {
        fn next_item(&mut self, node: NodeId, now: Time) -> Option<bash_workloads::WorkItem> {
            let left = &mut self.left[node.index()];
            *left = left.checked_sub(1)?;
            self.inner.next_item(node, now)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    // The run loop's contract (docs/ENGINE.md, "One run loop"). Its
    // `Stalled` wedge and its protocol-violation exit are pinned end to
    // end by `tests/fault_plane.rs::a_wedged_grid_point_becomes_an_error_row`
    // and `a_violating_grid_point_becomes_an_error_row`.

    /// Node 0 re-loads one block with zero think time: after the first
    /// miss every load hits and re-issues at the same instant, an event
    /// storm that never advances the clock.
    struct HitStorm;

    impl Workload for HitStorm {
        fn next_item(&mut self, node: NodeId, _now: Time) -> Option<WorkItem> {
            (node == NodeId(0)).then_some(WorkItem {
                think: Duration::ZERO,
                instructions: 0,
                op: ProcOp::Load {
                    block: BlockAddr(0),
                    word: 0,
                },
            })
        }

        fn name(&self) -> &str {
            "hit-storm"
        }
    }

    /// The watchdog sees every event, so it stops a same-instant storm at
    /// exactly its event budget.
    #[test]
    fn an_event_budget_stops_a_same_instant_storm_exactly() {
        let cfg = SystemConfig::paper_default(ProtocolKind::Directory, 4, 1600)
            .with_watchdog(WatchdogBudget::events(10_000));
        let mut sys = System::new(cfg, HitStorm);
        let err = sys.try_run_until(Time::from_ns(1_000_000)).unwrap_err();
        let RunError::Wedged(d) = err else {
            panic!("expected a wedge, got {err}");
        };
        assert_eq!(d.cause, WedgeCause::EventBudget { limit: 10_000 });
        assert_eq!(d.events_processed, 10_000);
        assert!(d.at < Time::from_ns(1_000), "the storm is one instant");
    }

    /// A virtual-time budget runs every event up to its limit and trips at
    /// the first one past it.
    #[test]
    fn a_time_budget_trips_at_the_first_event_past_its_limit() {
        let limit = Duration::from_ns(5_000);
        let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 4, 1600)
            .with_watchdog(WatchdogBudget::virtual_time(limit));
        let mut sys = System::new(cfg, LockingMicrobench::new(4, 8, Duration::ZERO, 1));
        let err = sys.try_run_until(Time::from_ns(20_000)).unwrap_err();
        let RunError::Wedged(d) = err else {
            panic!("expected a wedge, got {err}");
        };
        assert_eq!(d.cause, WedgeCause::TimeBudget { limit });
        assert!(sys.now() <= Time::ZERO + limit);
        assert!(sys.events.peek_time() > Some(Time::ZERO + limit));
    }

    /// A finite workload that drains quiescent before `t` is no wedge: the
    /// run returns `Ok` and the clock still reaches `t`.
    #[test]
    fn a_run_that_drains_quiescent_still_reaches_its_deadline() {
        let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 4, 1600);
        let wl = Capped {
            inner: LockingMicrobench::new(4, 8, Duration::ZERO, 1),
            left: vec![4; 4],
        };
        let mut sys = System::new(cfg, wl);
        let t = Time::from_ns(10_000_000);
        assert_eq!(sys.try_run_until(t), Ok(()));
        assert!(sys.events.is_empty(), "the queue drained before t");
        assert_eq!(sys.now(), t);
    }

    /// `LockingMicrobench` on the first member of every 4-node cluster
    /// only; the other members issue nothing.
    struct FirstMembers(LockingMicrobench);

    impl Workload for FirstMembers {
        fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
            node.0
                .is_multiple_of(4)
                .then(|| self.0.next_item(node, now))?
        }

        fn name(&self) -> &str {
            self.0.name()
        }
    }

    /// Under a hierarchy every member of a cluster samples the cluster's
    /// mean utilization, so the whole cluster shares one policy value
    /// even though its members' own links are unevenly busy. The low
    /// threshold puts the busy member's own link far above it and the
    /// idle members' far below, so sampling per node would split them.
    #[test]
    fn hierarchy_members_share_their_cluster_mean_policy() {
        let mut adaptor = AdaptorConfig::paper_default();
        adaptor.threshold_percent = 15;
        let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 16, 100)
            .with_hierarchy(HierarchyConfig::new(4, 2))
            .with_adaptor(adaptor);
        let wl = FirstMembers(LockingMicrobench::new(16, 4096, Duration::ZERO, 1));
        let mut sys = System::new(cfg, wl);
        sys.try_run_until(Time::from_ns(60_000)).unwrap();
        let now = sys.now();
        let busy: Vec<u64> = (0..16)
            .map(|i| sys.net.link(i).busy.busy_time_until(now).as_ps())
            .collect();
        let policy: Vec<u32> = sys
            .caches
            .iter_mut()
            .map(|c| c.adaptor_mut().expect("BASH has adaptors").policy_value())
            .collect();
        assert!(
            policy.iter().any(|&p| p > 0),
            "no policy moved, so equal policies test nothing"
        );
        for (c, (b, p)) in busy.chunks(4).zip(policy.chunks(4)).enumerate() {
            assert!(
                b.iter().any(|&x| x != b[0]),
                "cluster {c}: member links equally busy {b:?}, so the load tests nothing"
            );
            assert!(
                p.iter().all(|&x| x == p[0]),
                "cluster {c}: members' policies {p:?} differ (own-link busy {b:?})"
            );
        }
    }

    /// Every message that enters the arena leaves it: after a run drains,
    /// on each interconnect engine, under loss with retransmission, and
    /// under a hierarchy, no reference is left behind — and on the fabric
    /// no flight slot stays in use.
    #[test]
    fn runs_to_idle_leave_the_arena_empty() {
        for proto in ProtocolKind::ALL {
            let flat = || SystemConfig::paper_default(proto, 16, 1600);
            let mesh = || flat().with_topology(TopologyKind::Mesh2D);
            let cases = [
                ("crossbar", flat()),
                ("mesh", mesh()),
                (
                    "lossy mesh",
                    mesh().with_fault_plane(FaultPlaneConfig::lossy(7, 0.02)),
                ),
                (
                    "64-node hierarchy",
                    SystemConfig::paper_default(proto, 64, 1600)
                        .with_hierarchy(HierarchyConfig::new(16, 4)),
                ),
            ];
            for (name, cfg) in cases {
                let nodes = cfg.nodes;
                let cfg = cfg.with_cache(CacheGeometry { sets: 16, ways: 2 });
                let wl = Capped {
                    inner: LockingMicrobench::new(nodes, nodes as u64 * 2, Duration::ZERO, 1),
                    left: vec![24; nodes as usize],
                };
                let mut sys = System::new(cfg, wl);
                if let Err(e) = sys.try_run_to_idle() {
                    panic!("{proto:?} on {name} did not drain: {e}");
                }
                assert!(
                    sys.arena.allocated() > 0,
                    "{proto:?} on {name} sent nothing"
                );
                assert_eq!(
                    sys.arena.live(),
                    0,
                    "{proto:?} on {name} left messages in the arena"
                );
                assert_eq!(
                    sys.net.live_flights(),
                    0,
                    "{proto:?} on {name} left flights in the fabric"
                );
            }
        }
    }
}
