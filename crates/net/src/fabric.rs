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
//! bandwidth (a [`Link`], exactly like the crossbar's endpoint links): a
//! message occupies the link for `size / bandwidth`, queued behind
//! whatever the link is already carrying. Each intermediate vertex adds
//! the fixed `traversal` latency (store-and-forward switching). On a
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
//! # Flights
//!
//! Each transmission is a *flight* in a fabric-owned generational slab:
//! every [`NetEvent::Hop`] and [`NetEvent::Resend`] carries an 8-byte
//! [`FlightRef`] plus the index of its tree node. A slot holds the
//! message handle, its order and effective size, the per-delivery
//! sequence numbers, and the tree the flight rides. Trees are flat node
//! arrays whose children are linked first-child/next-sibling in launch
//! order. A slot counts the events that carry its handle and is recycled,
//! buffers and all, when the last one is consumed, so a steady-state send
//! allocates nothing. Fault-free routing never changes, so a full
//! broadcast rides the tree built on its source's first broadcast, and
//! the send only assigns the per-destination sequences.
//!
//! # Ordering
//!
//! [`Ordered::Total`] messages are sequenced **globally at injection**
//! (one shared counter, plus a per-destination sequence for each copy
//! that has a route; a copy that loses its route later gives its
//! sequence back at its endpoint). Because
//! multi-hop routes have different lengths and congestion, a later
//! message can physically overtake an earlier one; every endpoint
//! therefore *re-sequences*: a copy arriving ahead of its turn is held
//! back, in a ring indexed by its distance from the next sequence due,
//! until the preceding per-destination sequence numbers have been
//! delivered. The observable guarantee is exactly the crossbar's — all
//! endpoints see totally ordered messages in one global order — on every
//! topology. [`Topology::ordering`] reports whether the topology would
//! have provided the order natively (star: every route crosses the hub)
//! or relies on the hold-back queues ([`OrderingMode::Resequenced`]);
//! the verify harness surfaces this capability per run.

use std::collections::VecDeque;

use bash_kernel::{Duration, Time};

use crate::arena::{MsgArena, MsgRef};
use crate::crossbar::{Crossbar, Delivery, Link, MsgCost, NetConfig, NetEvent, NetStep};
use crate::fault::{DropCause, Fate, FaultPlane, FaultStats};
use crate::ids::{NodeId, NodeSet};
use crate::message::{Message, Ordered};
use crate::topology::{OrderingMode, Topology, TopologyKind};

/// Sentinel link id for loopback tree nodes (no physical link crossed).
const SELF_LINK: u32 = u32::MAX;

/// Sentinel tree-node index: no child, no sibling, no delivery.
const NONE: u32 = u32::MAX;

/// One entry of an endpoint's hold-back ring: the fate of one
/// per-destination sequence past the one due.
#[derive(Debug, Clone, Copy)]
enum Held {
    /// Nothing has arrived for this sequence yet.
    Awaited,
    /// An ordered copy that arrived ahead of its turn: the message's arena
    /// handle plus its global order number. The handle keeps the arena
    /// reference the eventual delivery will transfer.
    Copy(MsgRef, u64),
    /// The sequence's copy found no surviving route and will never arrive.
    Skipped,
}

/// A generational handle to an in-flight transmission in a [`Fabric`]'s
/// flight slab: a 32-bit slot index plus a 32-bit generation, like
/// [`MsgRef`]. A handle used after its slot was recycled panics.
#[derive(Debug, Clone, Copy)]
pub struct FlightRef {
    index: u32,
    gen: u32,
}

/// One node of a forwarding tree. A tree is one flat array: entry 0 is
/// the vertex the flight starts from (no in-link, no delivery), and every
/// other entry is one link crossing.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    /// The directed link whose crossing completes this node
    /// (`SELF_LINK` for a loopback copy; unused at entry 0).
    link: u32,
    /// First node fed by this one (`NONE`: a leaf).
    first_child: u32,
    /// The next node fed by this one's parent, in launch order.
    next_sibling: u32,
    /// Index into the flight's `seqs` of the delivery made here (`NONE`:
    /// this node only forwards).
    deliver: u32,
    /// The endpoint that delivery goes to.
    dst: NodeId,
}

// Cached broadcast trees cost one node per (source, vertex); the docs
// promise at most 24 bytes each.
const _: () = assert!(std::mem::size_of::<TreeNode>() <= 24);

impl TreeNode {
    fn new(link: u32) -> Self {
        TreeNode {
            link,
            first_child: NONE,
            next_sibling: NONE,
            deliver: NONE,
            dst: NodeId(0),
        }
    }
}

/// What each link crossing of one transmission costs: its effective
/// bytes and their transmission time at the link bandwidth.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    bytes: u64,
    tx: Duration,
}

/// One in-flight transmission. Slots are recycled and keep their
/// buffers' capacity across reuse.
#[derive(Debug)]
struct Flight {
    gen: u32,
    /// Scheduled `Hop`/`Resend` events carrying this slot's handle.
    events: u32,
    msg: MsgRef,
    order: Option<u64>,
    cost: Footprint,
    /// `Some(src)`: the flight rides `src`'s cached broadcast tree;
    /// `None`: its own `nodes`.
    shared: Option<u16>,
    /// The flight's own tree, when it rides no cached one.
    nodes: Vec<TreeNode>,
    /// Per-destination sequence of each delivery, indexed by
    /// [`TreeNode::deliver`] (empty for unordered flights).
    seqs: Vec<u64>,
}

impl Flight {
    /// The tree this flight rides: its source's cached broadcast tree, or
    /// its own.
    fn tree<'a>(&'a self, broadcast_trees: &'a [Vec<TreeNode>]) -> &'a [TreeNode] {
        match self.shared {
            Some(src) => &broadcast_trees[src as usize],
            None => &self.nodes,
        }
    }
}

/// The fabric-owned generational slab of in-flight transmissions.
#[derive(Debug, Default)]
struct FlightSlab {
    slots: Vec<Flight>,
    free: Vec<u32>,
    live: usize,
    /// The longest `nodes` and `seqs` any flight has filled, rounded up
    /// to a power of two. A slot is sized to both when taken, so which
    /// slot a flight lands in never decides whether it allocates.
    nodes_cap: usize,
    seqs_cap: usize,
}

impl FlightSlab {
    /// Takes a slot with no events booked and empty buffers.
    fn alloc(
        &mut self,
        msg: MsgRef,
        order: Option<u64>,
        cost: Footprint,
        shared: Option<u16>,
    ) -> FlightRef {
        self.live += 1;
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.slots.push(Flight {
                    gen: 0,
                    events: 0,
                    msg,
                    order,
                    cost,
                    shared,
                    nodes: Vec::new(),
                    seqs: Vec::new(),
                });
                u32::try_from(self.slots.len() - 1).expect("flight slab overflow")
            }
        };
        let f = &mut self.slots[index as usize];
        debug_assert_eq!(f.events, 0, "a slot in use was handed out");
        f.msg = msg;
        f.order = order;
        f.cost = cost;
        f.shared = shared;
        f.nodes.clear();
        f.nodes.reserve(self.nodes_cap);
        f.seqs.clear();
        f.seqs.reserve(self.seqs_cap);
        FlightRef { index, gen: f.gen }
    }

    /// Records the buffer lengths a flight just filled (see `nodes_cap`).
    fn note_sizes(&mut self, nodes: usize, seqs: usize) {
        self.nodes_cap = self.nodes_cap.max(nodes.next_power_of_two());
        self.seqs_cap = self.seqs_cap.max(seqs.next_power_of_two());
    }

    fn get(&self, r: FlightRef) -> &Flight {
        let f = &self.slots[r.index as usize];
        assert_eq!(f.gen, r.gen, "stale FlightRef: slot was recycled");
        f
    }

    fn get_mut(&mut self, r: FlightRef) -> &mut Flight {
        let f = &mut self.slots[r.index as usize];
        assert_eq!(f.gen, r.gen, "stale FlightRef: slot was recycled");
        f
    }

    /// Books `spawned` newly scheduled events for `r` in place of
    /// `consumed` (0 or 1) consumed ones; frees the slot once none remain.
    fn settle(&mut self, r: FlightRef, consumed: u32, spawned: u32) {
        let f = self.get_mut(r);
        f.events = f.events + spawned - consumed;
        if f.events == 0 {
            f.gen = f.gen.wrapping_add(1);
            self.free.push(r.index);
            self.live -= 1;
        }
    }
}

/// One endpoint's sequencing state for ordered traffic.
#[derive(Debug, Default)]
struct Endpoint {
    /// Next per-destination sequence to assign to a routed copy.
    next_seq: u64,
    /// Next per-destination sequence the endpoint will release.
    expect_seq: u64,
    /// Sequences past the one due: entry `i` is sequence
    /// `expect_seq + i`.
    held: VecDeque<Held>,
}

impl Endpoint {
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Settles sequence `seq` with `fate`: a copy that arrived, or a skip
    /// for one whose copy found no surviving route and never will. Due,
    /// it is delivered (a copy) with the copies queued behind it, up to
    /// the next gap; early, it is held back.
    fn settle(&mut self, dst: NodeId, seq: u64, fate: Held, nodes: usize, out: &mut Vec<Delivery>) {
        if seq < self.expect_seq {
            // Released already: a rerouted copy raced a surviving
            // original. No arena release: the `(dst, seq)` pair owns one
            // delivery reference system-wide, and the copy that settled
            // first already transferred or released it (its slot may
            // even be recycled by now).
            return;
        }
        if seq > self.expect_seq {
            let i = (seq - self.expect_seq) as usize;
            if self.held.len() <= i {
                // A ring starts with room for one ordered copy in flight
                // from every node, and doubles from there.
                let room = (i + 1).max(nodes);
                self.held.reserve(room - self.held.len());
                self.held.resize(i + 1, Held::Awaited);
            }
            // A rerouted copy and its surviving original can both arrive
            // early: the later one overwrites the earlier. A skip never
            // overwrites a copy.
            if !matches!((fate, self.held[i]), (Held::Skipped, Held::Copy(..))) {
                self.held[i] = fate;
            }
            return;
        }
        // Entry 0 was this sequence's, never held; the ones queued behind
        // it follow until the next gap.
        let due = self.held.pop_front();
        debug_assert!(
            matches!(due, None | Some(Held::Awaited)),
            "the sequence due was held back"
        );
        let mut settled = Some(fate);
        while let Some(fate) = settled {
            if let Held::Copy(msg, order) = fate {
                let order = Some(order);
                out.push(Delivery { dst, msg, order });
            }
            self.expect_seq += 1;
            settled = match self.held.front() {
                Some(Held::Copy(..) | Held::Skipped) => self.held.pop_front(),
                Some(Held::Awaited) | None => None,
            };
        }
    }
}

/// Per-directed-link state and accounting.
#[derive(Debug, Default)]
struct FabLink {
    from: u16,
    to: u16,
    link: Link,
    /// Instant of the most recent enqueue (peak-demand bucketing).
    last_enqueue: Time,
    /// Messages enqueued at `last_enqueue`.
    demand_now: u32,
    /// Highest same-instant enqueue count seen over the whole run.
    peak_demand: u32,
}

/// The fabric engine. Drop-in peer of [`Crossbar`]: same
/// [`NetConfig`], same [`NetStep`] driving contract, same delivery
/// semantics for ordered traffic. In-flight transmissions live in a
/// fabric-owned flight slab (see the module docs), so after warmup
/// [`Fabric::send`] and [`Fabric::handle`] allocate nothing.
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
    /// Per endpoint node: injection and release sequencing.
    endpoints: Vec<Endpoint>,
    flights: FlightSlab,
    /// Per source: the full-broadcast tree built on its first broadcast
    /// (empty until then, and always under a fault plane).
    broadcast_trees: Vec<Vec<TreeNode>>,
    /// Tree-construction scratch: per vertex, its node in the tree being
    /// built (valid where `entry_gen` equals `gen`), and per tree node,
    /// its most recently appended child.
    entry_node: Vec<u32>,
    entry_gen: Vec<u32>,
    gen: u32,
    last_child: Vec<u32>,
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
            links.push(FabLink {
                from,
                to,
                ..FabLink::default()
            });
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
            endpoints: (0..n).map(|_| Endpoint::default()).collect(),
            flights: FlightSlab::default(),
            broadcast_trees: vec![Vec::new(); n],
            entry_node: vec![0; v],
            entry_gen: vec![0; v],
            gen: 0,
            last_child: Vec::new(),
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

    /// Highest number of same-instant enqueues seen on directed link `i`.
    pub fn link_peak_demand(&self, i: usize) -> u32 {
        self.links[i].peak_demand
    }

    /// Transmissions currently in flight (slots in use in the flight
    /// slab); zero once the fabric has drained.
    pub fn live_flights(&self) -> usize {
        self.flights.live
    }

    /// Directed link `i`: its busy time and the bytes and messages
    /// forwarded over it.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i].link
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
        let bytes = self.cost.effective_size(m);
        let cost = Footprint {
            bytes,
            tx: Duration::transmission(bytes, self.cfg.link_mbps),
        };
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

        // Fault-free routing never changes, so a full broadcast rides the
        // tree its source's first broadcast built. Under a fault plane
        // every transmission builds its own independent chains.
        let shared =
            (self.fault.is_none() && self.cost.is_full_broadcast(&m.dests)).then_some(src.0);
        let fr = self.flights.alloc(msg, order, cost, shared);
        let mut seqs = std::mem::take(&mut self.flights.get_mut(fr).seqs);
        let planned = match shared {
            Some(s) if !self.broadcast_trees[s as usize].is_empty() => {
                if order.is_some() {
                    seqs.extend(
                        m.dests
                            .iter()
                            .map(|dst| self.endpoints[dst.index()].take_seq()),
                    );
                }
                m.dests.len() as u32
            }
            Some(s) => {
                let mut tree = std::mem::take(&mut self.broadcast_trees[s as usize]);
                let planned = self.build_tree(src, &m.dests, order.is_some(), &mut tree, &mut seqs);
                // Built once and kept for the run: drop the growth slack.
                tree.shrink_to_fit();
                self.broadcast_trees[s as usize] = tree;
                planned
            }
            None => {
                let mut tree = std::mem::take(&mut self.flights.get_mut(fr).nodes);
                let planned = self.build_tree(src, &m.dests, order.is_some(), &mut tree, &mut seqs);
                self.flights.note_sizes(tree.len(), 0);
                self.flights.get_mut(fr).nodes = tree;
                planned
            }
        };
        self.flights.note_sizes(0, seqs.len());
        self.flights.get_mut(fr).seqs = seqs;

        if planned == 0 {
            // Every destination was unreachable: no delivery will ever
            // consume the message, so its emission reference goes back.
            self.flights.settle(fr, 0, 0);
            arena.release(msg);
            return;
        }
        // One arena reference per delivery this transmission will produce.
        arena.retain(msg, planned - 1);
        let launched = self.forward(now + inject_delay, fr, 0, out);
        self.flights.settle(fr, 0, launched);
    }

    /// Builds the forwarding tree from `src` to every node of `dests` into
    /// the empty `nodes`, appending each planned delivery's
    /// per-destination sequence to `seqs` when `ordered`; returns the
    /// number of planned deliveries. Fault-free, the routes merge into one
    /// tree. Under an active fault plane each destination instead gets an
    /// independent linear chain (no shared tree edges), so one copy's
    /// loss, retransmission, or failover never affects the fate of the
    /// other destinations.
    fn build_tree(
        &mut self,
        src: NodeId,
        dests: &NodeSet,
        ordered: bool,
        nodes: &mut Vec<TreeNode>,
        seqs: &mut Vec<u64>,
    ) -> u32 {
        let merge = self.fault.is_none();
        self.start_tree(nodes);
        let mut planned = 0;
        for dst in dests.iter() {
            let tail = if dst == src {
                // Loopback: no link crossing, one switch turnaround.
                self.add_node(nodes, 0, SELF_LINK)
            } else {
                let Some(tail) = self.walk(src.0, dst, merge, nodes) else {
                    // Link deaths left this destination unreachable.
                    self.fault
                        .as_mut()
                        .expect("unreachable routes require a fault plane")
                        .count_undeliverable();
                    continue;
                };
                tail
            };
            let node = &mut nodes[tail as usize];
            node.deliver = planned;
            node.dst = dst;
            // Only a routed copy takes a sequence: one that will never
            // arrive must not leave a gap its endpoint waits on forever.
            if ordered {
                seqs.push(self.endpoints[dst.index()].take_seq());
            }
            planned += 1;
        }
        planned
    }

    /// Resets the build scratch and pushes the start node of an empty tree.
    fn start_tree(&mut self, nodes: &mut Vec<TreeNode>) {
        debug_assert!(nodes.is_empty(), "trees are built into empty buffers");
        self.gen = self.gen.wrapping_add(1);
        self.last_child.clear();
        self.last_child.push(NONE);
        nodes.push(TreeNode::new(NONE));
    }

    /// Appends a node completing `link` below `parent`, after the
    /// parent's existing children; returns its index.
    fn add_node(&mut self, nodes: &mut Vec<TreeNode>, parent: u32, link: u32) -> u32 {
        let ni = nodes.len() as u32;
        nodes.push(TreeNode::new(link));
        self.last_child.push(NONE);
        match self.last_child[parent as usize] {
            NONE => nodes[parent as usize].first_child = ni,
            last => nodes[last as usize].next_sibling = ni,
        }
        self.last_child[parent as usize] = ni;
        ni
    }

    /// Appends the route from vertex `from` (the tree's start) to `dst`;
    /// returns the node entering `dst`, or `None` when no surviving route
    /// exists. With `merge`, the route shares every vertex the tree
    /// already enters.
    fn walk(
        &mut self,
        from: u16,
        dst: NodeId,
        merge: bool,
        nodes: &mut Vec<TreeNode>,
    ) -> Option<u32> {
        // Failover routes follow a breadth-first tree, so a destination
        // reachable from the first hop stays reachable at every later one.
        let mut next = self.route_next(from, dst)?;
        let mut at = from;
        let mut parent = 0;
        loop {
            parent = if merge && self.entry_gen[next as usize] == self.gen {
                self.entry_node[next as usize]
            } else {
                let li = self.link_id(at, next);
                let ni = self.add_node(nodes, parent, li);
                if merge {
                    self.entry_gen[next as usize] = self.gen;
                    self.entry_node[next as usize] = ni;
                }
                ni
            };
            at = next;
            if at == dst.0 {
                return Some(parent);
            }
            next = self
                .route_next(at, dst)
                .expect("a route stays reachable past its first hop");
        }
    }

    /// Launches every child of tree node `node` at `t`, in launch order,
    /// scheduling one [`NetEvent::Hop`] each; returns how many.
    fn forward(&mut self, t: Time, fr: FlightRef, node: u32, out: &mut NetStep<P>) -> u32 {
        let f = self.flights.get(fr);
        let nodes = f.tree(&self.broadcast_trees);
        let mut child = nodes[node as usize].first_child;
        let mut launched = 0;
        while child != NONE {
            let c = nodes[child as usize];
            let done = launch(
                &mut self.links,
                self.fault.as_mut(),
                self.cfg.traversal,
                t,
                c.link,
                f.cost,
            );
            out.schedule.push((
                done,
                NetEvent::Hop {
                    flight: fr,
                    node: child,
                    attempt: 0,
                },
            ));
            launched += 1;
            child = c.next_sibling;
        }
        launched
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
                // Retransmission timer fired: re-enqueue the crossing. The
                // consumed event's place goes to the new `Hop`.
                let f = self.flights.get(flight);
                let link = f.tree(&self.broadcast_trees)[node as usize].link;
                let cost = f.cost;
                let traversal = self.cfg.traversal;
                let done = launch(
                    &mut self.links,
                    self.fault.as_mut(),
                    traversal,
                    now,
                    link,
                    cost,
                );
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
        fr: FlightRef,
        node: u32,
        attempt: u32,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let f = self.flights.get(fr);
        let here = f.tree(&self.broadcast_trees)[node as usize];
        let (msg, order) = (f.msg, f.order);
        let seq = match order {
            Some(_) if here.deliver != NONE => f.seqs[here.deliver as usize],
            _ => 0,
        };
        if here.link != SELF_LINK {
            if let Some(fault) = self.fault.as_mut() {
                if let Fate::Drop(cause) = fault.crossing_fate(here.link as usize, now) {
                    self.crossing_lost(now, fr, node, attempt, cause, arena, out);
                    return;
                }
            }
        }
        if here.deliver != NONE {
            self.endpoint_arrive(now, here.dst, msg, order, seq, out);
        }
        let launched = self.forward(now + self.cfg.traversal, fr, node, out);
        self.flights.settle(fr, 1, launched);
    }

    /// A crossing was discarded by the fault plane: retransmit with
    /// backoff, or — once the retransmit budget is exhausted (or the link
    /// is already dead) — declare the link dead and fail the copy over to
    /// a surviving route. Without a transport the copy is simply gone.
    #[allow(clippy::too_many_arguments)]
    fn crossing_lost(
        &mut self,
        now: Time,
        fr: FlightRef,
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
            arena.release(self.flights.get(fr).msg);
            self.flights.settle(fr, 1, 0);
            return;
        };
        let budget = transport.retransmit_budget;
        let li = self.flights.get(fr).tree(&self.broadcast_trees)[node as usize].link as usize;
        if matches!(cause, DropCause::Dead) || attempt + 1 >= budget {
            fault.mark_dead(li);
            self.rebuild_routes();
            self.reroute_copy(now, fr, node, arena, out);
        } else {
            fault.count_retransmit();
            let delay = fault.rto_after(attempt);
            out.schedule.push((
                now + delay,
                NetEvent::Resend {
                    flight: fr,
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
        let mut queue = VecDeque::new();
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
    /// The rerouted copy takes a fresh flight slot; the stuck copy's
    /// event is consumed.
    fn reroute_copy(
        &mut self,
        now: Time,
        fr: FlightRef,
        node: u32,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let f = self.flights.get(fr);
        // Walk to the chain tail for the delivery this copy was carrying.
        let mut tail = f.nodes[node as usize];
        while tail.deliver == NONE {
            debug_assert_eq!(
                f.nodes[tail.first_child as usize].next_sibling, NONE,
                "fault-plane flights are linear chains"
            );
            tail = f.nodes[tail.first_child as usize];
        }
        let (msg, order, cost, dst) = (f.msg, f.order, f.cost, tail.dst);
        let seq = order.map_or(0, |_| f.seqs[tail.deliver as usize]);
        let start = self.links[f.nodes[node as usize].link as usize].from;
        self.flights.settle(fr, 1, 0);

        let nf = self.flights.alloc(msg, order, cost, None);
        let mut nodes = std::mem::take(&mut self.flights.get_mut(nf).nodes);
        self.start_tree(&mut nodes);
        let tail = self.walk(start, dst, false, &mut nodes);
        self.flights.note_sizes(nodes.len(), 1);
        let f = self.flights.get_mut(nf);
        f.nodes = nodes;
        let Some(tail) = tail else {
            // No surviving route: the copy's delivery will never happen —
            // give its arena reference back, and its sequence, so the
            // endpoint releases the ordered copies behind it.
            self.flights.settle(nf, 0, 0);
            self.fault
                .as_mut()
                .expect("fault plane")
                .count_undeliverable();
            arena.release(msg);
            if order.is_some() {
                let nodes = self.cfg.nodes as usize;
                self.endpoints[dst.index()].settle(
                    dst,
                    seq,
                    Held::Skipped,
                    nodes,
                    &mut out.deliveries,
                );
            }
            return;
        };
        f.nodes[tail as usize].deliver = 0;
        f.nodes[tail as usize].dst = dst;
        if order.is_some() {
            f.seqs.push(seq);
        }
        // The rerouted copy inherits the original's delivery reference:
        // one delivery was owed before, one is owed after — no retain.
        self.fault.as_mut().expect("fault plane").count_reroute();
        let launched = self.forward(now, nf, 0, out);
        self.flights.settle(nf, 0, launched);
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
        let Some(o) = order else {
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
            return;
        };
        let ep = &mut self.endpoints[dst.index()];
        debug_assert!(
            self.fault.is_some() || seq >= ep.expect_seq,
            "sequence delivered twice"
        );
        let nodes = self.cfg.nodes as usize;
        ep.settle(dst, seq, Held::Copy(msg, o), nodes, &mut out.deliveries);
    }

    fn link_id(&self, from: u16, to: u16) -> u32 {
        let v = self.topo.vertices() as usize;
        let li = self.link_index[from as usize * v + to as usize];
        debug_assert_ne!(li, u32::MAX, "route used nonexistent link {from}->{to}");
        li
    }
}

/// Enqueues a crossing of link `li` (`SELF_LINK`: loopback, which
/// crosses no link and takes one `traversal`) at `t`; returns the
/// completion instant. Fault-plane extra delay is propagation, not
/// occupancy: it pushes the crossing's completion out without extending
/// the link's busy window.
fn launch(
    links: &mut [FabLink],
    fault: Option<&mut FaultPlane>,
    traversal: Duration,
    t: Time,
    li: u32,
    cost: Footprint,
) -> Time {
    if li == SELF_LINK {
        return t + traversal;
    }
    let fl = &mut links[li as usize];
    if fl.link.messages > 0 && fl.last_enqueue == t {
        fl.demand_now += 1;
    } else {
        fl.last_enqueue = t;
        fl.demand_now = 1;
    }
    fl.peak_demand = fl.peak_demand.max(fl.demand_now);
    let end = fl.link.carry(t, cost.tx, cost.bytes);
    match fault {
        Some(f) => end + f.extra_delay(li as usize),
        None => end,
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

    // The link view: both engines model a link as one `Link`, indexed
    // `0..link_count()`: one endpoint link per node on the crossbar, one
    // per directed edge on the fabric.

    /// Number of links.
    pub fn link_count(&self) -> usize {
        match self {
            Interconnect::Crossbar(c) => c.link_count(),
            Interconnect::Fabric(f) => f.link_count(),
        }
    }

    /// Link `i`: its busy time and the bytes and messages it carried.
    pub fn link(&self, i: usize) -> &Link {
        match self {
            Interconnect::Crossbar(c) => c.link(i),
            Interconnect::Fabric(f) => f.link(i),
        }
    }

    /// Ids of the links incident to endpoint `node`.
    pub fn incident_links(&self, node: NodeId) -> &[u32] {
        match self {
            Interconnect::Crossbar(c) => c.incident_links(node),
            Interconnect::Fabric(f) => f.incident_links(node),
        }
    }

    /// `(from, to)` vertices of directed link `i`, or `None` on the
    /// crossbar, whose endpoint links are not reported link by link.
    pub fn link_endpoints(&self, i: usize) -> Option<(u16, u16)> {
        match self {
            Interconnect::Crossbar(_) => None,
            Interconnect::Fabric(f) => Some(f.link_endpoints(i)),
        }
    }

    /// Highest same-instant enqueue count on link `i` (0 on the
    /// crossbar, which does not track it).
    pub fn link_peak_demand(&self, i: usize) -> u32 {
        match self {
            Interconnect::Crossbar(_) => 0,
            Interconnect::Fabric(f) => f.link_peak_demand(i),
        }
    }

    /// Transmissions in flight in the fabric's slab (0 on the crossbar,
    /// which keeps no per-transmission state).
    pub fn live_flights(&self) -> usize {
        match self {
            Interconnect::Crossbar(_) => 0,
            Interconnect::Fabric(f) => f.live_flights(),
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
        let total_msgs: u64 = (0..net.link_count()).map(|i| net.link(i).messages).sum();
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
        assert_eq!(net.link(up).bytes, 16);
        assert_eq!(net.link(up).messages, 2);
        assert_eq!(net.link_peak_demand(up), 2);
        // The hub→1 link carried one message.
        let down = (0..net.link_count())
            .find(|&i| net.link_endpoints(i) == (4, 1))
            .unwrap();
        assert_eq!(net.link(down).bytes, 8);
        assert_eq!(net.link_peak_demand(down), 1);
        assert!(net.link(up).busy.busy_time_until(Time::from_ns(200)) > Duration::ZERO);
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
        let total_msgs: u64 = (0..net.link_count()).map(|i| net.link(i).messages).sum();
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

    /// A 2-ring whose 0→1 link, the only route from node 0 to node 1, is
    /// down for good; the transport declares it dead at the first loss.
    fn ring2_with_a_dead_link() -> NetConfig {
        use crate::fault::{FaultPlaneConfig, LinkFaultProfile, TransportConfig};
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
        c
    }

    #[test]
    fn unreachable_destination_is_counted_undeliverable() {
        // The stuck copy and any later send to 1 are permanently
        // undeliverable, and both must give back the arena reference they
        // entered with.
        let mut net = Fabric::new(ring2_with_a_dead_link());
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

    /// Once the link has died, an ordered copy for node 1 is refused at
    /// injection. It must take no sequence at node 1, or node 1's own
    /// ordered loopback, sent after it, would wait forever behind it.
    #[test]
    fn a_copy_refused_at_injection_takes_no_sequence() {
        let mut net = Fabric::new(ring2_with_a_dead_link());
        let to1 = || NodeSet::singleton(NodeId(1));
        let kill = Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "kill");
        let sends = vec![
            (Time::ZERO, kill),
            (
                Time::from_ns(1_000),
                Message::ordered(NodeId(0), to1(), 8, "refused"),
            ),
            (
                Time::from_ns(2_000),
                Message::ordered(NodeId(1), to1(), 8, "loopback"),
            ),
        ];
        let out = drive(&mut net, sends);
        let delivered: Vec<_> = out.iter().map(|(_, d, p)| (d.dst, *p)).collect();
        assert_eq!(delivered, vec![(NodeId(1), "loopback")]);
        assert_eq!(net.fault_stats().unwrap().undeliverable, 2);
        assert!(net.endpoints[1].held.is_empty());
    }

    /// An ordered copy for node 1 takes its sequence, is lost on the
    /// dead link and finds no route around it. The endpoint must give
    /// that sequence up, so node 1's own ordered loopback, sent after it,
    /// is delivered instead of held back forever.
    #[test]
    fn a_copy_whose_reroute_fails_gives_its_sequence_back() {
        let mut net = Fabric::new(ring2_with_a_dead_link());
        let to1 = || NodeSet::singleton(NodeId(1));
        let sends = vec![
            (
                Time::ZERO,
                Message::ordered(NodeId(0), to1(), 8, "stranded"),
            ),
            (
                Time::from_ns(1_000),
                Message::ordered(NodeId(1), to1(), 8, "loopback"),
            ),
        ];
        let out = drive(&mut net, sends);
        let delivered: Vec<_> = out.iter().map(|(_, d, p)| (d.dst, *p)).collect();
        assert_eq!(delivered, vec![(NodeId(1), "loopback")]);
        let stats = net.fault_stats().unwrap();
        assert_eq!((stats.dead_links, stats.undeliverable), (1, 1));
        assert!(net.endpoints[1].held.is_empty());
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
        let total: u64 = (0..net.link_count()).map(|i| net.link(i).messages).sum();
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

    #[test]
    #[should_panic(expected = "stale FlightRef")]
    fn stale_flight_refs_panic() {
        let mut net = Fabric::new(cfg(TopologyKind::Line, 2, 1600));
        let mut arena = MsgArena::new();
        let mut step = NetStep::new();
        let unicast = || Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, "m");
        let r = arena.alloc(unicast(), 1);
        net.send(Time::ZERO, r, &mut arena, &mut step);
        let Some((at, NetEvent::Hop { flight, node, .. })) = step.schedule.pop() else {
            panic!("a unicast launches one hop");
        };
        let hop = || NetEvent::Hop {
            flight,
            node,
            attempt: 0,
        };
        net.handle(at, hop(), &mut arena, &mut step);
        assert_eq!(net.live_flights(), 0, "the last hop frees the slot");
        let r = arena.alloc(unicast(), 1);
        net.send(at, r, &mut arena, &mut step);
        net.handle(at, hop(), &mut arena, &mut step);
    }

    #[test]
    fn cached_broadcast_trees_replay_the_first_round() {
        // The first round builds every source's tree; the second, sent
        // once the first has drained, rides the cached trees and must
        // cross the same links with the same per-destination latencies.
        // Ordered unicasts sent first leave the endpoints at different
        // sequence numbers, so a broadcast that handed one endpoint's
        // sequence to another would stall there.
        for (kind, nodes) in [(TopologyKind::Mesh2D, 64u16), (TopologyKind::Torus, 16)] {
            let mut net = Fabric::new(cfg(kind, nodes, 1600));
            let skew = (0..nodes)
                .flat_map(|d| (0..d % 3).map(move |_| d))
                .map(|d| {
                    let to = NodeSet::singleton(NodeId(d));
                    let from = NodeId((d + 1) % nodes);
                    (Time::ZERO, Message::ordered(from, to, 8, "skew"))
                })
                .collect();
            drive(&mut net, skew);
            let round = |net: &mut Fabric<&'static str>, start: Time| {
                let before: Vec<u64> = (0..net.link_count())
                    .map(|i| net.link(i).messages)
                    .collect();
                let first_order = net.next_order;
                let sends = (0..nodes)
                    .map(|s| {
                        let all = NodeSet::all(nodes as usize);
                        (start, Message::ordered(NodeId(s), all, 8, "b"))
                    })
                    .collect();
                let out = drive(net, sends);
                let crossed: Vec<u64> = (0..net.link_count())
                    .map(|i| net.link(i).messages - before[i])
                    .collect();
                let mut latency: Vec<(u64, u16, u64)> = out
                    .iter()
                    .map(|(t, d, _)| {
                        let src = d.order.expect("ordered") - first_order;
                        (src, d.dst.0, t.since(start).as_ps())
                    })
                    .collect();
                latency.sort_unstable();
                (crossed, latency)
            };
            assert!(net.broadcast_trees.iter().all(Vec::is_empty));
            let first = round(&mut net, Time::from_ns(1_000_000));
            assert!(
                net.broadcast_trees.iter().all(|t| !t.is_empty()),
                "{kind:?}: the first round builds every source's tree"
            );
            assert_eq!(first.1.len(), nodes as usize * nodes as usize);
            let second = round(&mut net, Time::from_ns(2_000_000));
            assert_eq!(first, second, "{kind:?}");
            assert_eq!(net.live_flights(), 0, "{kind:?}");
        }
    }

    #[test]
    fn overtaking_copies_are_released_in_sequence_order() {
        // On a 3-line, node 0's ordered unicast to node 2 (sequence 0
        // there) queues at vertex 1 behind 64 later ordered unicasts from
        // node 1: all 64 overtake it and are held back at endpoint 2
        // until it lands, then released with it in sequence order.
        let mut net = Fabric::new(cfg(TopologyKind::Line, 3, 1600));
        let to2 = || NodeSet::singleton(NodeId(2));
        let mut sends = vec![(Time::ZERO, Message::ordered(NodeId(0), to2(), 8, "first"))];
        sends.extend((0..64).map(|_| {
            (
                Time::from_ns(1),
                Message::ordered(NodeId(1), to2(), 8, "late"),
            )
        }));
        let out = drive(&mut net, sends);
        let orders: Vec<u64> = out
            .iter()
            .map(|(_, d, _)| d.order.expect("ordered"))
            .collect();
        assert_eq!(orders, (0..65).collect::<Vec<_>>());
        assert!(
            out.iter().all(|(t, _, _)| *t == out[0].0),
            "the held copies are released with the copy they waited for"
        );
        assert!(net.endpoints[2].held.is_empty());
        assert_eq!(net.live_flights(), 0);
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
