//! The topology-aware fabric: hop-by-hop message forwarding through
//! per-directed-link FIFO bandwidth queues.
//!
//! # Model
//!
//! Where the [`Crossbar`] charges exactly one sender link, one fixed core
//! traversal, and one receiver link per destination, the fabric routes
//! each message along the chain of directed links its [`Topology`]
//! prescribes:
//!
//! ```text
//! link(src→v₁) → +traversal → link(v₁→v₂) → +traversal → … → link(vₖ→dst) ⇒ deliver
//! ```
//!
//! Every directed link is an independent FIFO server of the configured
//! bandwidth ([`BusyTracker`]-backed, exactly like the crossbar's endpoint
//! links): a message occupies the link for `size / bandwidth`, queued
//! behind whatever the link is already carrying. Each intermediate vertex
//! adds the fixed `traversal` latency (store-and-forward switching). On a
//! star this reproduces the crossbar's two-link shape — tx, 50 ns, rx —
//! with the difference that contention is per *directed* link rather than
//! per bidirectional endpoint.
//!
//! A multicast is forwarded as a **tree**: the deterministic routes from
//! one source to all destinations are merged (each vertex has a unique
//! in-link per source — see [`crate::topology`]), and one arena-resident
//! message ([`MsgRef`]) travels each tree edge exactly once, branching at
//! the fork vertices. A destination whose tree node completes its last link
//! crossing receives the delivery; loopback copies (source in the
//! destination set) cross no link and arrive after one traversal.
//!
//! # Ordering
//!
//! [`Ordered::Total`] messages are sequenced **globally at injection**
//! (one shared counter, plus a per-destination sequence). Because
//! multi-hop routes have different lengths and congestion, a later
//! message can physically overtake an earlier one; every endpoint
//! therefore *re-sequences*: a copy arriving ahead of its turn is held
//! back until the preceding per-destination sequence numbers have been
//! delivered. The observable guarantee is exactly the crossbar's — all
//! endpoints see totally ordered messages in one global order — on every
//! topology. [`Topology::ordering`] reports whether the topology would
//! have provided the order natively (star: every route crosses the hub)
//! or relies on the hold-back queues ([`OrderingMode::Resequenced`]);
//! the verify harness surfaces this capability per run.

use std::collections::BTreeMap;
use std::rc::Rc;

use bash_kernel::stats::BusyTracker;
use bash_kernel::{Duration, Time};

use crate::arena::{MsgArena, MsgRef};
use crate::crossbar::{Crossbar, Delivery, MsgCost, NetConfig, NetEvent, NetStep};
use crate::fault::{DropCause, Fate, FaultPlane, FaultStats};
use crate::ids::NodeId;
use crate::message::{Message, Ordered};
use crate::topology::{OrderingMode, Topology, TopologyKind};

/// Sentinel link id for loopback tree nodes (no physical link crossed).
const SELF_LINK: u32 = u32::MAX;

/// An ordered copy held back at an endpoint: the message's arena handle
/// plus its global order number, keyed (in [`Fabric::held`]) by the
/// per-destination sequence it must wait its turn for. The handle keeps
/// the arena reference the eventual delivery will transfer.
type HeldCopy = (MsgRef, u64);

/// One node of an in-flight multicast forwarding tree.
#[derive(Debug)]
struct FlightNode {
    /// The directed link whose crossing completes this node
    /// (`SELF_LINK` for a loopback copy).
    link: u32,
    /// Tree nodes fed by this vertex (indices into `FabricFlight::nodes`).
    children: Vec<u32>,
    /// Endpoint delivery at this vertex: `(destination, per-dst sequence)`.
    deliver: Option<(NodeId, u64)>,
}

/// An in-flight message plus its multicast forwarding tree. The tree is
/// shared ([`Rc`]) across all [`NetEvent::Hop`] events of one
/// transmission; the payload itself lives in the driver's [`MsgArena`].
#[derive(Debug)]
pub struct FabricFlight {
    msg: MsgRef,
    order: Option<u64>,
    eff: u64,
    nodes: Vec<FlightNode>,
}

/// Per-directed-link state and accounting.
#[derive(Debug)]
struct FabLink {
    from: u16,
    to: u16,
    busy: BusyTracker,
    bytes: u64,
    messages: u64,
    /// Instant of the most recent enqueue (peak-demand bucketing).
    last_enqueue: Time,
    /// Messages enqueued at `last_enqueue`.
    demand_now: u32,
    /// Highest same-instant enqueue count seen over the whole run.
    peak_demand: u32,
}

impl FabLink {
    fn new(from: u16, to: u16) -> Self {
        FabLink {
            from,
            to,
            busy: BusyTracker::default(),
            bytes: 0,
            messages: 0,
            last_enqueue: Time::ZERO,
            demand_now: 0,
            peak_demand: 0,
        }
    }
}

/// The fabric engine. Drop-in peer of [`Crossbar`]: same
/// [`NetConfig`], same [`NetStep`] driving contract, same delivery
/// semantics for ordered traffic.
#[derive(Debug)]
pub struct Fabric<P> {
    cfg: NetConfig,
    topo: Box<dyn Topology>,
    cost: MsgCost,
    links: Vec<FabLink>,
    /// Dense `(from * vertices + to) → link id` map (`u32::MAX` = no link).
    link_index: Vec<u32>,
    /// Per endpoint node: ids of the links it is an endpoint of.
    incident: Vec<Vec<u32>>,
    next_order: u64,
    /// Next per-destination sequence to assign at injection.
    dst_next_seq: Vec<u64>,
    /// Next per-destination sequence the endpoint will release.
    expect_seq: Vec<u64>,
    /// Ordered copies that overtook their turn, keyed by sequence.
    held: Vec<BTreeMap<u64, HeldCopy>>,
    /// Generation-stamped per-vertex scratch for tree construction.
    entry_node: Vec<u32>,
    entry_gen: Vec<u32>,
    gen: u32,
    /// The deterministic fault plane, when `cfg.fault` configures one.
    fault: Option<FaultPlane>,
    /// Failover routing table, built after the first link death:
    /// `vertex * nodes + dst → next hop` (`u16::MAX` = unreachable).
    reroute: Option<Vec<u16>>,
    _marker: std::marker::PhantomData<P>,
}

impl<P> Fabric<P> {
    /// Builds a fabric for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the node count or bandwidth is zero, or if
    /// `cfg.topology` is [`TopologyKind::Crossbar`] (use [`Crossbar`] —
    /// or [`Interconnect::new`], which dispatches).
    pub fn new(cfg: NetConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(cfg.link_mbps > 0, "bandwidth must be positive");
        assert!(cfg.broadcast_cost_multiplier >= 1);
        let topo = cfg
            .topology
            .build(cfg.nodes)
            .expect("Fabric requires a routed topology, not the crossbar");
        let v = topo.vertices() as usize;
        let mut link_index = vec![u32::MAX; v * v];
        let mut links = Vec::with_capacity(topo.links().len());
        let mut incident = vec![Vec::new(); cfg.nodes as usize];
        for (i, &(from, to)) in topo.links().iter().enumerate() {
            link_index[from as usize * v + to as usize] = i as u32;
            if (from as usize) < incident.len() {
                incident[from as usize].push(i as u32);
            }
            if (to as usize) < incident.len() {
                incident[to as usize].push(i as u32);
            }
            links.push(FabLink::new(from, to));
        }
        let n = cfg.nodes as usize;
        let fault = cfg
            .fault
            .as_ref()
            .map(|fc| FaultPlane::new(fc, topo.links()));
        Fabric {
            cost: MsgCost::new(&cfg),
            links,
            link_index,
            incident,
            next_order: 0,
            dst_next_seq: vec![0; n],
            expect_seq: vec![0; n],
            held: (0..n).map(|_| BTreeMap::new()).collect(),
            entry_node: vec![0; v],
            entry_gen: vec![0; v],
            gen: 0,
            fault,
            reroute: None,
            topo,
            cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The routing graph.
    pub fn topology(&self) -> &dyn Topology {
        &*self.topo
    }

    /// Ordering capability of the underlying topology (the delivered
    /// guarantee is always a total order; see the module docs).
    pub fn ordering(&self) -> OrderingMode {
        self.topo.ordering()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// `(from, to)` vertices of directed link `i`.
    pub fn link_endpoints(&self, i: usize) -> (u16, u16) {
        (self.links[i].from, self.links[i].to)
    }

    /// Effective bytes forwarded over directed link `i`.
    pub fn link_bytes(&self, i: usize) -> u64 {
        self.links[i].bytes
    }

    /// Messages forwarded over directed link `i`.
    pub fn link_messages(&self, i: usize) -> u64 {
        self.links[i].messages
    }

    /// Highest number of same-instant enqueues seen on directed link `i`.
    pub fn link_peak_demand(&self, i: usize) -> u32 {
        self.links[i].peak_demand
    }

    /// Busy-time tracker of directed link `i`.
    pub fn link_tracker(&self, i: usize) -> &BusyTracker {
        &self.links[i].busy
    }

    /// Ids of the directed links incident to endpoint `node` (both
    /// directions) — the adaptive mechanism's local-utilization inputs.
    pub fn incident_links(&self, node: NodeId) -> &[u32] {
        &self.incident[node.index()]
    }

    /// Cumulative fault-plane counters, when a fault plane is configured.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Injects the arena-resident message `msg` at `now`; appends the
    /// first link-crossing completions (one per tree root) to `out`. The
    /// handle carries one arena reference, which becomes one per planned
    /// delivery — or is released when no destination is reachable.
    ///
    /// # Panics
    ///
    /// Panics if the destination set is empty or the source is out of
    /// range.
    pub fn send(&mut self, now: Time, msg: MsgRef, arena: &mut MsgArena<P>, out: &mut NetStep<P>) {
        let m = arena.get(msg);
        assert!(!m.dests.is_empty(), "message with no destinations");
        assert!(
            m.src.index() < self.topo.nodes() as usize,
            "bad source node"
        );
        let eff = self.cost.effective_size(m);
        let inject_delay = self.cost.injection_jitter();
        let order = match m.ordered {
            Ordered::Total => {
                let o = self.next_order;
                self.next_order += 1;
                Some(o)
            }
            Ordered::None => None,
        };
        let src = m.src;
        let t0 = now + inject_delay;

        // Merge the per-destination routes into the forwarding tree.
        // Under an active fault plane each destination instead gets an
        // independent linear chain (no shared tree edges), so one copy's
        // loss, retransmission, or failover never affects the fate of the
        // other destinations; fault-free runs keep the tree path and its
        // exact schedule.
        let fault_active = self.fault.is_some();
        self.gen = self.gen.wrapping_add(1);
        let mut nodes: Vec<FlightNode> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut planned: u32 = 0;
        for dst in m.dests.iter() {
            let seq = match order {
                Some(_) => {
                    let s = self.dst_next_seq[dst.index()];
                    self.dst_next_seq[dst.index()] += 1;
                    s
                }
                None => 0,
            };
            if dst == src {
                // Loopback: no link crossing, one switch turnaround.
                let ni = nodes.len() as u32;
                nodes.push(FlightNode {
                    link: SELF_LINK,
                    children: Vec::new(),
                    deliver: Some((dst, seq)),
                });
                roots.push(ni);
                planned += 1;
                continue;
            }
            let mut at = src.0;
            let mut parent: Option<u32> = None;
            let chain_start = nodes.len();
            let mut reachable = true;
            while at != dst.0 {
                let Some(next) = self.route_next(at, dst) else {
                    reachable = false;
                    break;
                };
                let li = self.link_id(at, next);
                let ni = if !fault_active && self.entry_gen[next as usize] == self.gen {
                    self.entry_node[next as usize]
                } else {
                    let ni = nodes.len() as u32;
                    nodes.push(FlightNode {
                        link: li,
                        children: Vec::new(),
                        deliver: None,
                    });
                    if !fault_active {
                        self.entry_gen[next as usize] = self.gen;
                        self.entry_node[next as usize] = ni;
                    }
                    match parent {
                        Some(p) => nodes[p as usize].children.push(ni),
                        None => roots.push(ni),
                    }
                    ni
                };
                parent = Some(ni);
                at = next;
            }
            if !reachable {
                // Link deaths left this destination unreachable: discard
                // the partial chain (never shared — fault plane active).
                nodes.truncate(chain_start);
                roots.retain(|&r| (r as usize) < chain_start);
                self.fault
                    .as_mut()
                    .expect("unreachable routes require a fault plane")
                    .count_undeliverable();
                continue;
            }
            let tail = parent.expect("non-loopback route has at least one hop");
            nodes[tail as usize].deliver = Some((dst, seq));
            planned += 1;
        }

        if planned == 0 {
            // Every destination was unreachable: no delivery will ever
            // consume the message, so its emission reference goes back.
            arena.release(msg);
            return;
        }
        // One arena reference per delivery this transmission will produce.
        arena.retain(msg, planned - 1);
        let flight = Rc::new(FabricFlight {
            msg,
            order,
            eff,
            nodes,
        });
        for ni in roots {
            let done = self.launch(t0, &flight, ni);
            out.schedule.push((
                done,
                NetEvent::Hop {
                    flight: Rc::clone(&flight),
                    node: ni,
                    attempt: 0,
                },
            ));
        }
    }

    /// Advances an internal event (see [`Crossbar::handle`] for the
    /// contract). The fabric only ever schedules [`NetEvent::Hop`],
    /// [`NetEvent::Resend`], and [`NetEvent::Deliver`].
    pub fn handle(
        &mut self,
        now: Time,
        event: NetEvent<P>,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        match event {
            NetEvent::Hop {
                flight,
                node,
                attempt,
            } => self.hop(now, flight, node, attempt, arena, out),
            NetEvent::Resend {
                flight,
                node,
                attempt,
            } => {
                // Retransmission timer fired: re-enqueue the crossing.
                let done = self.launch(now, &flight, node);
                out.schedule.push((
                    done,
                    NetEvent::Hop {
                        flight,
                        node,
                        attempt,
                    },
                ));
            }
            NetEvent::Deliver { dst, msg, order } => {
                out.deliveries.push(Delivery { dst, msg, order });
            }
            NetEvent::TxDone(..) | NetEvent::RxArrive { .. } => {
                unreachable!("crossbar-only event reached the fabric")
            }
        }
    }

    /// A tree node's in-link finished crossing: consult the fault plane
    /// (if any), then deliver and/or forward.
    fn hop(
        &mut self,
        now: Time,
        flight: Rc<FabricFlight>,
        node: u32,
        attempt: u32,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let li = flight.nodes[node as usize].link;
        if li != SELF_LINK && self.fault.is_some() {
            let fate = self
                .fault
                .as_mut()
                .expect("checked above")
                .crossing_fate(li as usize, now);
            if let Fate::Drop(cause) = fate {
                self.crossing_lost(now, flight, node, attempt, cause, arena, out);
                return;
            }
        }
        if let Some((dst, seq)) = flight.nodes[node as usize].deliver {
            self.endpoint_arrive(now, dst, flight.msg, flight.order, seq, out);
        }
        for i in 0..flight.nodes[node as usize].children.len() {
            let child = flight.nodes[node as usize].children[i];
            let done = self.launch(now + self.cfg.traversal, &flight, child);
            out.schedule.push((
                done,
                NetEvent::Hop {
                    flight: Rc::clone(&flight),
                    node: child,
                    attempt: 0,
                },
            ));
        }
    }

    /// A crossing was discarded by the fault plane: retransmit with
    /// backoff, or — once the retransmit budget is exhausted (or the link
    /// is already dead) — declare the link dead and fail the copy over to
    /// a surviving route. Without a transport the copy is simply gone.
    #[allow(clippy::too_many_arguments)]
    fn crossing_lost(
        &mut self,
        now: Time,
        flight: Rc<FabricFlight>,
        node: u32,
        attempt: u32,
        cause: DropCause,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let fault = self.fault.as_mut().expect("fault plane");
        fault.count_drop(cause);
        let Some(transport) = fault.transport() else {
            // Raw loss reaches the protocols: this copy (and everything
            // downstream of it) is permanently gone — drop the delivery
            // reference it was carrying (fault-plane flights are linear
            // chains, so a lost copy is exactly one delivery).
            fault.count_undeliverable();
            arena.release(flight.msg);
            return;
        };
        let budget = transport.retransmit_budget;
        let li = flight.nodes[node as usize].link as usize;
        if matches!(cause, DropCause::Dead) || attempt + 1 >= budget {
            fault.mark_dead(li);
            self.rebuild_routes();
            self.reroute_copy(now, &flight, node, arena, out);
        } else {
            fault.count_retransmit();
            let delay = fault.rto_after(attempt);
            out.schedule.push((
                now + delay,
                NetEvent::Resend {
                    flight,
                    node,
                    attempt: attempt + 1,
                },
            ));
        }
    }

    /// The next hop from `at` toward `dst`: the failover table when link
    /// deaths forced one, the topology's route otherwise. `None` means
    /// the destination is unreachable over the surviving links.
    fn route_next(&self, at: u16, dst: NodeId) -> Option<u16> {
        match &self.reroute {
            Some(table) => {
                let nh = table[at as usize * self.cfg.nodes as usize + dst.index()];
                (nh != u16::MAX).then_some(nh)
            }
            None => Some(self.topo.next_hop(at, dst)),
        }
    }

    /// Recomputes the failover routing table over the surviving links:
    /// per-destination BFS on the reverse graph, next hop = the live
    /// out-neighbor one step closer to the destination (smallest-vertex
    /// tie-break, so failover routes are deterministic).
    fn rebuild_routes(&mut self) {
        let fault = self
            .fault
            .as_ref()
            .expect("failover requires a fault plane");
        let v = self.topo.vertices() as usize;
        let n = self.cfg.nodes as usize;
        let mut table = vec![u16::MAX; v * n];
        let mut dist = vec![u32::MAX; v];
        let mut queue = std::collections::VecDeque::new();
        for dstv in 0..n {
            dist.fill(u32::MAX);
            dist[dstv] = 0;
            queue.clear();
            queue.push_back(dstv as u16);
            while let Some(u) = queue.pop_front() {
                for (li, l) in self.links.iter().enumerate() {
                    if l.to == u && !fault.is_dead(li) && dist[l.from as usize] == u32::MAX {
                        dist[l.from as usize] = dist[u as usize] + 1;
                        queue.push_back(l.from);
                    }
                }
            }
            for at in 0..v {
                if at == dstv || dist[at] == u32::MAX {
                    continue;
                }
                let mut best: Option<u16> = None;
                for (li, l) in self.links.iter().enumerate() {
                    if l.from as usize == at
                        && !fault.is_dead(li)
                        && dist[l.to as usize] == dist[at] - 1
                    {
                        best = Some(match best {
                            Some(b) => b.min(l.to),
                            None => l.to,
                        });
                    }
                }
                if let Some(b) = best {
                    table[at * n + dstv] = b;
                }
            }
        }
        self.reroute = Some(table);
    }

    /// Re-launches a copy stuck on a dead link along the surviving
    /// routes, preserving its `(destination, sequence)` identity so the
    /// endpoint re-sequencer is none the wiser. Chains are linear under
    /// an active fault plane, so the copy carries exactly one delivery.
    fn reroute_copy(
        &mut self,
        now: Time,
        flight: &Rc<FabricFlight>,
        node: u32,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        // Walk to the chain tail for the delivery this copy was carrying.
        let mut at_node = node;
        let (dst, seq) = loop {
            let fnode = &flight.nodes[at_node as usize];
            debug_assert!(
                fnode.children.len() <= 1,
                "fault-plane flights are linear chains"
            );
            if let Some(d) = fnode.deliver {
                break d;
            }
            at_node = fnode.children[0];
        };
        let start = self.links[flight.nodes[node as usize].link as usize].from;
        let mut nodes: Vec<FlightNode> = Vec::new();
        let mut at = start;
        let mut parent: Option<u32> = None;
        while at != dst.0 {
            let Some(next) = self.route_next(at, dst) else {
                // No surviving route: the copy's delivery will never
                // happen — give its arena reference back.
                self.fault
                    .as_mut()
                    .expect("fault plane")
                    .count_undeliverable();
                arena.release(flight.msg);
                return;
            };
            let li = self.link_id(at, next);
            let ni = nodes.len() as u32;
            nodes.push(FlightNode {
                link: li,
                children: Vec::new(),
                deliver: None,
            });
            if let Some(p) = parent {
                nodes[p as usize].children.push(ni);
            }
            parent = Some(ni);
            at = next;
        }
        let tail = parent.expect("rerouted copy crosses at least one link");
        nodes[tail as usize].deliver = Some((dst, seq));
        // The rerouted copy inherits the original's delivery reference:
        // one delivery was owed before, one is owed after — no retain.
        let new_flight = Rc::new(FabricFlight {
            msg: flight.msg,
            order: flight.order,
            eff: flight.eff,
            nodes,
        });
        self.fault.as_mut().expect("fault plane").count_reroute();
        let done = self.launch(now, &new_flight, 0);
        out.schedule.push((
            done,
            NetEvent::Hop {
                flight: new_flight,
                node: 0,
                attempt: 0,
            },
        ));
    }

    /// Enqueues a tree node's in-link crossing at `t`; returns the
    /// completion instant. Loopback nodes cross no link. Fault-plane
    /// extra delay is propagation, not occupancy: it pushes the crossing's
    /// completion out without extending the link's busy window.
    fn launch(&mut self, t: Time, flight: &Rc<FabricFlight>, node: u32) -> Time {
        let li = flight.nodes[node as usize].link;
        if li == SELF_LINK {
            return t + self.cfg.traversal;
        }
        let tx_time = Duration::transmission(flight.eff, self.cfg.link_mbps);
        let link = &mut self.links[li as usize];
        if link.messages > 0 && link.last_enqueue == t {
            link.demand_now += 1;
        } else {
            link.last_enqueue = t;
            link.demand_now = 1;
        }
        link.peak_demand = link.peak_demand.max(link.demand_now);
        let start = t.max(link.busy.busy_until());
        let end = start + tx_time;
        link.busy.mark_busy(start, end);
        link.bytes += flight.eff;
        link.messages += 1;
        match self.fault.as_mut() {
            Some(f) => end + f.extra_delay(li as usize),
            None => end,
        }
    }

    /// A copy reached its destination endpoint: release it, re-sequencing
    /// ordered traffic into per-destination injection order.
    fn endpoint_arrive(
        &mut self,
        now: Time,
        dst: NodeId,
        msg: MsgRef,
        order: Option<u64>,
        seq: u64,
        out: &mut NetStep<P>,
    ) {
        match order {
            None => {
                let extra = self.cost.traversal_jitter();
                if extra.as_ps() == 0 {
                    out.deliveries.push(Delivery {
                        dst,
                        msg,
                        order: None,
                    });
                } else {
                    out.schedule.push((
                        now + extra,
                        NetEvent::Deliver {
                            dst,
                            msg,
                            order: None,
                        },
                    ));
                }
            }
            Some(o) => {
                let i = dst.index();
                if seq == self.expect_seq[i] {
                    out.deliveries.push(Delivery {
                        dst,
                        msg,
                        order: Some(o),
                    });
                    self.expect_seq[i] += 1;
                    while let Some((m, held_order)) = self.held[i].remove(&self.expect_seq[i]) {
                        out.deliveries.push(Delivery {
                            dst,
                            msg: m,
                            order: Some(held_order),
                        });
                        self.expect_seq[i] += 1;
                    }
                } else if self.fault.is_some() && seq < self.expect_seq[i] {
                    // A rerouted copy raced a surviving original: the
                    // endpoint already released this sequence — dedup.
                    // No arena release: the `(dst, seq)` pair owns one
                    // delivery reference system-wide and the copy that
                    // delivered first already transferred it (this slot
                    // may even be recycled by now).
                } else {
                    debug_assert!(seq > self.expect_seq[i], "sequence delivered twice");
                    self.held[i].insert(seq, (msg, o));
                }
            }
        }
    }

    fn link_id(&self, from: u16, to: u16) -> u32 {
        let v = self.topo.vertices() as usize;
        let li = self.link_index[from as usize * v + to as usize];
        debug_assert_ne!(li, u32::MAX, "route used nonexistent link {from}->{to}");
        li
    }
}

/// The interconnect a [`NetConfig`] selects: the original crossbar
/// (default) or a routed fabric. Both variants share the
/// [`NetStep`]-driven event contract, so drivers can hold this enum and
/// stay topology-agnostic on the hot path.
#[derive(Debug)]
// The fabric (link tables, resequencers, fault plane) dwarfs the
// crossbar, but a driver holds exactly one interconnect — never arrays
// of them — so the size skew costs nothing and boxing would only add a
// pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Interconnect<P> {
    /// The paper's fixed-latency crossbar ([`TopologyKind::Crossbar`]).
    Crossbar(Crossbar<P>),
    /// The hop-by-hop fabric (every other [`TopologyKind`]).
    Fabric(Fabric<P>),
}

impl<P> Interconnect<P> {
    /// Builds the interconnect `cfg.topology` selects.
    pub fn new(cfg: NetConfig) -> Self {
        match cfg.topology {
            TopologyKind::Crossbar => Interconnect::Crossbar(Crossbar::new(cfg)),
            _ => Interconnect::Fabric(Fabric::new(cfg)),
        }
    }

    /// Stores `msg` in `arena` with one reference and injects it: the
    /// convenience form of [`Interconnect::inject`] for callers that hold
    /// the message by value.
    pub fn send(
        &mut self,
        now: Time,
        msg: Message<P>,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let msg = arena.alloc(msg, 1);
        self.inject(now, msg, arena, out);
    }

    /// Injects the arena-resident message `msg`, whose handle carries one
    /// reference (see [`Crossbar::send`] / [`Fabric::send`]). `arena` is
    /// the driver-owned message arena shared by both engines.
    pub fn inject(
        &mut self,
        now: Time,
        msg: MsgRef,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        match self {
            Interconnect::Crossbar(c) => c.send(now, msg, arena, out),
            Interconnect::Fabric(f) => f.send(now, msg, arena, out),
        }
    }

    /// Advances an internal event (see [`Crossbar::handle`]).
    pub fn handle(
        &mut self,
        now: Time,
        event: NetEvent<P>,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        match self {
            Interconnect::Crossbar(c) => c.handle(now, event, arena, out),
            Interconnect::Fabric(f) => f.handle(now, event, arena, out),
        }
    }

    /// The configuration the interconnect was built with.
    pub fn config(&self) -> &NetConfig {
        match self {
            Interconnect::Crossbar(c) => c.config(),
            Interconnect::Fabric(f) => f.config(),
        }
    }

    /// Ordering capability (the crossbar orders natively at its core).
    pub fn ordering(&self) -> OrderingMode {
        match self {
            Interconnect::Crossbar(_) => OrderingMode::NativeTotalOrder,
            Interconnect::Fabric(f) => f.ordering(),
        }
    }

    /// Cumulative fault-plane counters (fabric with a fault plane only).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            Interconnect::Crossbar(_) => None,
            Interconnect::Fabric(f) => f.fault_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::Jitter;
    use crate::ids::NodeSet;
    use crate::VnetId;
    use bash_kernel::EventQueue;

    /// Drives sends + network to completion; returns deliveries with
    /// times and the arena-resolved payload (fabric twin of the crossbar
    /// test driver). Delivery references are deliberately not released so
    /// [`MsgRef`] identity comparisons stay meaningful after the drive.
    fn drive(
        net: &mut Fabric<&'static str>,
        sends: Vec<(Time, Message<&'static str>)>,
    ) -> Vec<(Time, Delivery, &'static str)> {
        drive_in(net, &mut MsgArena::new(), sends)
    }

    /// [`drive`] against a caller-owned arena, so a test can inspect what
    /// the drive left in it.
    fn drive_in(
        net: &mut Fabric<&'static str>,
        arena: &mut MsgArena<&'static str>,
        sends: Vec<(Time, Message<&'static str>)>,
    ) -> Vec<(Time, Delivery, &'static str)> {
        enum Ev {
            Send(Message<&'static str>),
            Net(NetEvent<&'static str>),
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        for (t, m) in sends {
            q.schedule(t, Ev::Send(m));
        }
        let mut out = Vec::new();
        let mut step = NetStep::new();
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Send(m) => {
                    let r = arena.alloc(m, 1);
                    net.send(now, r, arena, &mut step);
                }
                Ev::Net(ne) => net.handle(now, ne, arena, &mut step),
            }
            for (t, e) in step.schedule.drain(..) {
                q.schedule(t, Ev::Net(e));
            }
            for d in step.deliveries.drain(..) {
                let payload = arena.get(d.msg).payload;
                out.push((now, d, payload));
            }
        }
        out
    }

    fn cfg(kind: TopologyKind, nodes: u16, mbps: u64) -> NetConfig {
        let mut c = NetConfig::new(nodes, mbps);
        c.topology = kind;
        c
    }

    #[test]
    fn star_unicast_matches_the_crossbar_latency_shape() {
        // 8 bytes at 1600 MB/s = 5 ns per link; src→hub (5), +50 at the
        // hub, hub→dst (5): 60 ns, the crossbar's number.
        let mut net = Fabric::new(cfg(TopologyKind::Star, 4, 1600));
        let m = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "m");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Time::from_ns(60));
        assert_eq!(out[0].1.dst, NodeId(1));
    }

    #[test]
    fn line_latency_counts_every_hop() {
        // 0→3 on a 4-line: three 5 ns links, two 50 ns turnarounds = 115.
        let mut net = Fabric::new(cfg(TopologyKind::Line, 4, 1600));
        let m = Message::unordered(NodeId(0), NodeId(3), VnetId::DATA, 8, "m");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out[0].0, Time::from_ns(115));
    }

    #[test]
    fn shared_middle_link_serializes() {
        // Two 72B messages (45 ns each) both crossing link 1→2 of a line.
        // First: 45 + 50 + 45 = 140. Second (0→2) reaches vertex 1 at 45,
        // wants 1→2 at 95 but the link is busy 50..95 only — wait, the
        // first (1→2 direct) occupies 1→2 during 0..45; the second's
        // crossing starts at max(95, 45) = 95, ends 140+... so: first
        // delivers at 45+0? Direct 1→2: one link, no turnaround: 45.
        // Second delivers at 45(0→1) + 50 + 45(1→2 from 95) = 140.
        let mut net = Fabric::new(cfg(TopologyKind::Line, 3, 1600));
        let m1 = Message::unordered(NodeId(1), NodeId(2), VnetId::DATA, 72, "a");
        let m2 = Message::unordered(NodeId(0), NodeId(2), VnetId::DATA, 72, "b");
        let out = drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)]);
        let times: Vec<u64> = out.iter().map(|(t, _, _)| t.as_ns()).collect();
        assert_eq!(times, vec![45, 140]);
        // Now force genuine contention: both messages need 1→2 at once.
        let mut net = Fabric::new(cfg(TopologyKind::Line, 3, 1600));
        let m1 = Message::unordered(NodeId(0), NodeId(2), VnetId::DATA, 72, "a");
        let m2 = Message::unordered(NodeId(0), NodeId(2), VnetId::DATA, 72, "b");
        let out = drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)]);
        let times: Vec<u64> = out.iter().map(|(t, _, _)| t.as_ns()).collect();
        // 0→1 serializes (45, 90); 1→2 crossings run 95..140, 140..185.
        assert_eq!(times, vec![140, 185]);
    }

    #[test]
    fn broadcast_forwards_once_per_tree_edge() {
        // Ring of 4, broadcast from 0: routes 0→1, 0→1→2 (cw tie),
        // 0→3. Links 0→1, 1→2, 0→3 each carry the message exactly once.
        let mut net = Fabric::new(cfg(TopologyKind::Ring, 4, 1600));
        let m = Message::ordered(NodeId(0), NodeSet::all(4), 8, "bcast");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 4);
        let total_msgs: u64 = (0..net.link_count()).map(|i| net.link_messages(i)).sum();
        assert_eq!(total_msgs, 3, "three tree edges, one crossing each");
        let first = out[0].1.msg;
        assert!(out.iter().all(|(_, d, _)| d.msg == first));
        assert!(out.iter().all(|(_, d, _)| d.order == Some(0)));
    }

    #[test]
    fn ordered_delivery_follows_injection_order_on_every_topology() {
        // A huge head-of-line message makes node 0's first link slow, so
        // node 1's later broadcast would physically overtake node 0's on
        // a multi-hop topology; re-sequencing must still deliver
        // injection order everywhere.
        for kind in TopologyKind::ALL_FABRIC {
            let mut net = Fabric::new(cfg(kind, 4, 100));
            let preload = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 72, "big");
            let b0 = Message::ordered(NodeId(0), NodeSet::all(4), 8, "from0");
            let b1 = Message::ordered(NodeId(1), NodeSet::all(4), 8, "from1");
            let out = drive(
                &mut net,
                vec![
                    (Time::ZERO, preload),
                    (Time::from_ns(1), b0),
                    (Time::from_ns(2), b1),
                ],
            );
            let mut per_node: std::collections::HashMap<u16, Vec<&str>> = Default::default();
            for (_, d, payload) in &out {
                if d.order.is_some() {
                    per_node.entry(d.dst.0).or_default().push(*payload);
                }
            }
            assert_eq!(per_node.len(), 4, "{kind:?}");
            for v in per_node.values() {
                // Injection order: b0 was sequenced before b1.
                assert_eq!(*v, vec!["from0", "from1"], "{kind:?}");
            }
        }
    }

    #[test]
    fn per_link_stats_account_bytes_and_peak_demand() {
        let mut net = Fabric::new(cfg(TopologyKind::Star, 4, 1600));
        let m1 = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "a");
        let m2 = Message::unordered(NodeId(0), NodeId(2), VnetId::DATA, 8, "b");
        drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)]);
        // Link 0→hub carried both messages, enqueued at the same instant.
        let up = (0..net.link_count())
            .find(|&i| net.link_endpoints(i) == (0, 4))
            .unwrap();
        assert_eq!(net.link_bytes(up), 16);
        assert_eq!(net.link_messages(up), 2);
        assert_eq!(net.link_peak_demand(up), 2);
        // The hub→1 link carried one message.
        let down = (0..net.link_count())
            .find(|&i| net.link_endpoints(i) == (4, 1))
            .unwrap();
        assert_eq!(net.link_bytes(down), 8);
        assert_eq!(net.link_peak_demand(down), 1);
        assert!(net.link_tracker(up).busy_time_until(Time::from_ns(200)) > Duration::ZERO);
        assert_eq!(net.incident_links(NodeId(0)).len(), 2);
    }

    #[test]
    fn loopback_copy_crosses_no_link() {
        let mut net = Fabric::new(cfg(TopologyKind::Ring, 2, 800));
        let m = Message::ordered(NodeId(0), NodeSet::all(2), 8, "dual");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 2);
        let self_copy = out.iter().find(|(_, d, _)| d.dst == NodeId(0)).unwrap();
        // One switch turnaround, no link time.
        assert_eq!(self_copy.0, Time::from_ns(50));
        let total_msgs: u64 = (0..net.link_count()).map(|i| net.link_messages(i)).sum();
        assert_eq!(total_msgs, 1, "only the 0→1 copy crossed a link");
    }

    #[test]
    fn broadcast_cost_multiplier_applies_per_link() {
        let mut c = cfg(TopologyKind::Star, 4, 1600);
        c.broadcast_cost_multiplier = 4;
        let mut net = Fabric::new(c);
        let b = Message::ordered(NodeId(0), NodeSet::all(4), 8, "bcast");
        let out = drive(&mut net, vec![(Time::ZERO, b)]);
        // 8B * 4 = 32B → 20 ns per link; 20 + 50 + 20 = 90 ns for the
        // remote copies (loopback at 50 + 20... no: loopback crosses no
        // link, arrives at 0→? loopback = one traversal = 50 ns).
        let remote_times: Vec<u64> = out
            .iter()
            .filter(|(_, d, _)| d.dst != NodeId(0))
            .map(|(t, _, _)| t.as_ns())
            .collect();
        assert!(remote_times.iter().all(|&t| t == 90), "{remote_times:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let jittered = |seed: u64| {
            let mut c = cfg(TopologyKind::Mesh2D, 4, 1600);
            c.jitter = Jitter::Uniform {
                injection_max: Duration::from_ns(20),
                traversal_max: Duration::from_ns(30),
                seed,
            };
            let mut net = Fabric::new(c);
            let m1 = Message::unordered(NodeId(0), NodeId(3), VnetId::DATA, 8, "a");
            let m2 = Message::unordered(NodeId(2), NodeId(1), VnetId::DATA, 8, "b");
            drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)])
                .iter()
                .map(|(t, _, _)| t.as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(jittered(9), jittered(9));
        assert_ne!(jittered(9), jittered(10));
    }

    #[test]
    fn lost_crossing_retransmits_until_the_outage_ends() {
        use crate::fault::{FaultPlaneConfig, LinkFaultProfile, TransportConfig};
        // The 0→1 link is down for the first 100 ns; the transport
        // retries with backoff until a crossing completes outside it.
        let mut c = cfg(TopologyKind::Line, 2, 1600);
        c.fault = Some(FaultPlaneConfig {
            seed: 1,
            default_profile: LinkFaultProfile::default(),
            overrides: vec![(
                (0, 1),
                LinkFaultProfile {
                    down: vec![(Time::ZERO, Time::from_ns(100))],
                    ..LinkFaultProfile::default()
                },
            )],
            transport: Some(TransportConfig {
                rto: Duration::from_ns(200),
                backoff_cap: 4,
                retransmit_budget: 8,
            }),
        });
        let mut net = Fabric::new(c);
        let m = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "m");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 1, "delivered exactly once");
        // First crossing completes at 5 ns (inside the outage → lost);
        // the retry fires at 205 ns and completes clean at 210 ns.
        assert_eq!(out[0].0, Time::from_ns(210));
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.down_drops, 1);
        assert_eq!(stats.retransmits, 1);
        assert_eq!(stats.dead_links, 0);
    }

    #[test]
    fn budget_exhaustion_kills_the_link_and_fails_over() {
        use crate::fault::{FaultPlaneConfig, LinkFaultProfile, TransportConfig};
        // 0→1 on a 3-ring is permanently down; once the budget is spent
        // the link is declared dead and the copy re-routes 0→2→1.
        let mut c = cfg(TopologyKind::Ring, 3, 1600);
        c.fault = Some(FaultPlaneConfig {
            seed: 1,
            default_profile: LinkFaultProfile::default(),
            overrides: vec![(
                (0, 1),
                LinkFaultProfile {
                    down: vec![(Time::ZERO, Time::MAX)],
                    ..LinkFaultProfile::default()
                },
            )],
            transport: Some(TransportConfig {
                rto: Duration::from_ns(100),
                backoff_cap: 2,
                retransmit_budget: 2,
            }),
        });
        let mut net = Fabric::new(c);
        let m = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "m");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.dst, NodeId(1));
        // Lost at 5, retried at 105..110 and lost again (budget spent);
        // failover launches 0→2 at 110 (done 115), +50 turnaround,
        // 2→1 crossing 165..170.
        assert_eq!(out[0].0, Time::from_ns(170));
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.down_drops, 2);
        assert_eq!(stats.retransmits, 1);
        assert_eq!(stats.dead_links, 1);
        assert_eq!(stats.rerouted, 1);
        assert_eq!(stats.undeliverable, 0);
    }

    #[test]
    fn unreachable_destination_is_counted_undeliverable() {
        use crate::fault::{FaultPlaneConfig, LinkFaultProfile, TransportConfig};
        // On a 2-ring the only route 0→1 is the one dead link: the stuck
        // copy and any later send to 1 are permanently undeliverable, and
        // both must give back the arena reference they entered with.
        let mut c = cfg(TopologyKind::Ring, 2, 1600);
        c.fault = Some(FaultPlaneConfig {
            seed: 1,
            default_profile: LinkFaultProfile::default(),
            overrides: vec![(
                (0, 1),
                LinkFaultProfile {
                    down: vec![(Time::ZERO, Time::MAX)],
                    ..LinkFaultProfile::default()
                },
            )],
            transport: Some(TransportConfig {
                rto: Duration::from_ns(100),
                backoff_cap: 1,
                retransmit_budget: 1,
            }),
        });
        let mut net = Fabric::new(c);
        let mut arena = MsgArena::new();
        let m1 = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "a");
        let m2 = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "b");
        let sends = vec![(Time::ZERO, m1), (Time::from_ns(1000), m2)];
        let out = drive_in(&mut net, &mut arena, sends);
        assert!(out.is_empty());
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.dead_links, 1);
        assert_eq!(stats.rerouted, 0);
        assert_eq!(
            stats.undeliverable, 2,
            "one stuck copy, one refused at injection"
        );
        assert_eq!(arena.allocated(), 2);
        assert_eq!(arena.live(), 0, "an undeliverable message leaked");
        // The reverse link still works.
        let m3 = Message::unordered(NodeId(1), NodeId(0), VnetId::DATA, 8, "c");
        let out = drive(&mut net, vec![(Time::from_ns(2000), m3)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn multicast_under_a_fault_plane_uses_independent_chains() {
        use crate::fault::{FaultPlaneConfig, FaultStats};
        // A benign-but-active plane disables tree sharing so per-copy
        // fates stay independent: the ring-4 broadcast's 0→1 link now
        // carries both the dst-1 and dst-2 copies (4 crossings, not 3).
        let mut c = cfg(TopologyKind::Ring, 4, 1600);
        c.fault = Some(FaultPlaneConfig::lossy(1, 0.0));
        let mut net = Fabric::new(c);
        let m = Message::ordered(NodeId(0), NodeSet::all(4), 8, "bcast");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, d, _)| d.order == Some(0)));
        let total: u64 = (0..net.link_count()).map(|i| net.link_messages(i)).sum();
        assert_eq!(total, 4, "independent chains: 1 + 2 + 1 crossings");
        assert_eq!(net.fault_stats().unwrap(), FaultStats::default());
    }

    #[test]
    fn lossy_schedules_are_deterministic_per_seed() {
        use crate::fault::FaultPlaneConfig;
        let run = |seed: u64| {
            let mut c = cfg(TopologyKind::Mesh2D, 4, 1600);
            c.fault = Some(FaultPlaneConfig::lossy(seed, 0.2));
            let mut net = Fabric::new(c);
            let sends: Vec<(Time, Message<&'static str>)> = (0..24u64)
                .map(|i| {
                    (
                        Time::from_ns(i * 7),
                        Message::unordered(
                            NodeId((i % 4) as u16),
                            NodeId(((i + 1) % 4) as u16),
                            VnetId::DATA,
                            8,
                            "m",
                        ),
                    )
                })
                .collect();
            let out = drive(&mut net, sends);
            let times: Vec<(u64, u16)> = out.iter().map(|(t, d, _)| (t.as_ps(), d.dst.0)).collect();
            (times, net.fault_stats().unwrap())
        };
        let (a, sa) = run(11);
        assert_eq!(a.len(), 24, "reliable transport delivers everything");
        assert!(sa.retransmits > 0, "a 20% loss rate must cost retries");
        assert_eq!(run(11), (a.clone(), sa));
        assert_ne!(run(12).0, a, "different seed, different schedule");
    }

    #[test]
    fn interconnect_dispatches_on_topology() {
        let xbar: Interconnect<&'static str> = Interconnect::new(NetConfig::new(4, 800));
        assert!(matches!(xbar, Interconnect::Crossbar(_)));
        assert_eq!(xbar.ordering(), OrderingMode::NativeTotalOrder);
        let fab: Interconnect<&'static str> = Interconnect::new(cfg(TopologyKind::Mesh2D, 4, 800));
        assert!(matches!(fab, Interconnect::Fabric(_)));
        assert_eq!(fab.ordering(), OrderingMode::Resequenced);
    }

    /// Satellite invariant (proptest): on every fabric topology, under
    /// random jitter and random ordered multicasts, each endpoint
    /// observes ordered messages in strictly increasing global sequence —
    /// the re-sequencer never lets a later injection overtake.
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_ordered_broadcasts_deliver_in_sequence_under_jitter(
                seed in 0u64..1_000_000,
                kind_ix in 0usize..TopologyKind::ALL_FABRIC.len(),
                nodes in 2u16..9,
                sends in proptest::collection::vec((0u16..8, 1u64..96), 1..12),
            ) {
                let kind = TopologyKind::ALL_FABRIC[kind_ix];
                let mut c = NetConfig::new(nodes, 400);
                c.topology = kind;
                c.jitter = Jitter::Uniform {
                    injection_max: Duration::from_ns(40),
                    traversal_max: Duration::from_ns(25),
                    seed,
                };
                let mut net = Fabric::new(c);
                let msgs: Vec<(Time, Message<&'static str>)> = sends
                    .iter()
                    .enumerate()
                    .map(|(i, &(src, at_ns))| {
                        (
                            Time::from_ns(at_ns + i as u64),
                            Message::ordered(
                                NodeId(src % nodes),
                                NodeSet::all(nodes as usize),
                                8,
                                "b",
                            ),
                        )
                    })
                    .collect();
                let expected = msgs.len();
                let out = drive(&mut net, msgs);
                let mut per_node: std::collections::HashMap<u16, Vec<u64>> = Default::default();
                for (_, d, _) in &out {
                    per_node
                        .entry(d.dst.0)
                        .or_default()
                        .push(d.order.expect("ordered"));
                }
                prop_assert_eq!(per_node.len(), nodes as usize);
                for (node, orders) in &per_node {
                    prop_assert_eq!(
                        orders.len(),
                        expected,
                        "node {} missed deliveries", node
                    );
                    let mut sorted = orders.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(orders, &sorted, "node {} saw out-of-order", node);
                }
            }
        }
    }
}
