//! The fixed-latency crossbar with bandwidth-limited endpoint links.
//!
//! # Model
//!
//! A message follows the path
//!
//! ```text
//! sender link (size/BW) → crossbar core (fixed traversal, 50 ns) → receiver link (size/BW)
//! ```
//!
//! Both links are FIFO servers; queueing happens only at the endpoints
//! (paper §4.2). A multicast occupies the sender's link once and each
//! destination's link once. Totally ordered messages receive a global
//! sequence number when they enter the crossbar core (i.e. when the sender
//! link finishes transmitting); because the core latency is constant and
//! receiver links are FIFO, all nodes observe totally ordered messages in
//! sequence order — the property snooping and GS320-style protocols rely on.
//!
//! # Integration
//!
//! The crossbar is driven by an external event loop: [`Crossbar::send`] and
//! [`Crossbar::handle`] append to a caller-owned [`NetStep`] the future
//! events to schedule and the finished deliveries to hand to node
//! controllers. The driver reuses one `NetStep` buffer across every call,
//! so once warmed up, sending and handling allocate nothing
//! (`crates/net/tests/steady_state_alloc.rs` pins this for both engines).
//! The message itself lives once in the caller's [`MsgArena`] from the
//! moment it is sent: every event, and every destination of a
//! fan-out, carries the same 8-byte [`MsgRef`] handle instead of the
//! payload.

use std::marker::PhantomData;

use bash_kernel::stats::BusyTracker;
use bash_kernel::{DetRng, Duration, Time};

use crate::arena::{MsgArena, MsgRef};
use crate::fabric::FlightRef;
use crate::ids::{NodeId, NodeSet};
use crate::message::{Message, Ordered};
use crate::topology::TopologyKind;

/// Static configuration of the interconnect.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of nodes attached to the crossbar.
    pub nodes: u16,
    /// Endpoint link bandwidth in MB/s (the x-axis of Figures 1, 5–7, 10, 11).
    pub link_mbps: u64,
    /// Fixed crossbar traversal latency (50 ns in the paper); in the
    /// fabric, the per-hop store-and-forward latency at each vertex.
    pub traversal: Duration,
    /// Bandwidth-footprint multiplier applied to full-broadcast messages
    /// (1 normally; 4 for Figure 11's larger-system approximation).
    pub broadcast_cost_multiplier: u32,
    /// Optional randomized latency perturbation (used by the random tester
    /// and by the paper's measurement-perturbation methodology).
    pub jitter: Jitter,
    /// Which interconnect to build: the default [`TopologyKind::Crossbar`]
    /// selects this crate's [`Crossbar`]; any other kind selects the
    /// routed [`crate::fabric::Fabric`].
    pub topology: TopologyKind,
    /// Optional deterministic fault plane (loss, corruption, delay,
    /// outages) plus the reliable-delivery transport layered on it.
    /// Requires a routed fabric topology — the crossbar has no links to
    /// fault ([`Fabric::new`](crate::Fabric::new) asserts this).
    pub fault: Option<crate::fault::FaultPlaneConfig>,
}

impl NetConfig {
    /// A configuration with the paper's defaults: 50 ns traversal, no
    /// broadcast penalty, no jitter, crossbar topology.
    pub fn new(nodes: u16, link_mbps: u64) -> Self {
        NetConfig {
            nodes,
            link_mbps,
            traversal: Duration::from_ns(50),
            broadcast_cost_multiplier: 1,
            jitter: Jitter::None,
            topology: TopologyKind::Crossbar,
            fault: None,
        }
    }
}

/// Randomized message-latency perturbation.
///
/// Injection jitter delays a message *before* it is ordered, so the total
/// order stays consistent; traversal jitter is applied only to unordered
/// messages (per-destination), since perturbing ordered fan-out latencies
/// would break the total-order guarantee.
#[derive(Debug, Clone)]
pub enum Jitter {
    /// No perturbation (deterministic baseline).
    None,
    /// Uniformly random delays up to the given bounds.
    Uniform {
        /// Maximum extra delay before a message starts transmitting.
        injection_max: Duration,
        /// Maximum extra per-destination delay for unordered messages.
        traversal_max: Duration,
        /// RNG seed (runs are reproducible for a fixed seed).
        seed: u64,
    },
}

/// The per-message cost rules both interconnect engines share: the
/// bandwidth footprint of a message (full broadcasts are inflated by the
/// broadcast cost multiplier, Figure 11) and the seeded [`Jitter`] draws.
/// A zero bound never draws, so the random stream advances only where a
/// delay can actually be added.
#[derive(Debug)]
pub(crate) struct MsgCost {
    full_mask: NodeSet,
    broadcast_multiplier: u64,
    injection_max_ps: u64,
    traversal_max_ps: u64,
    rng: Option<DetRng>,
}

impl MsgCost {
    pub(crate) fn new(cfg: &NetConfig) -> Self {
        let (injection_max_ps, traversal_max_ps, rng) = match &cfg.jitter {
            Jitter::None => (0, 0, None),
            Jitter::Uniform {
                injection_max,
                traversal_max,
                seed,
            } => (
                injection_max.as_ps(),
                traversal_max.as_ps(),
                Some(DetRng::seed_from(*seed)),
            ),
        };
        MsgCost {
            full_mask: NodeSet::all(cfg.nodes as usize),
            broadcast_multiplier: cfg.broadcast_cost_multiplier as u64,
            injection_max_ps,
            traversal_max_ps,
            rng,
        }
    }

    /// True when `dests` is every node: a full broadcast.
    pub(crate) fn is_full_broadcast(&self, dests: &NodeSet) -> bool {
        *dests == self.full_mask
    }

    /// The bytes `msg` occupies on every link it crosses.
    pub(crate) fn effective_size<P>(&self, msg: &Message<P>) -> u64 {
        if self.is_full_broadcast(&msg.dests) {
            msg.size as u64 * self.broadcast_multiplier
        } else {
            msg.size as u64
        }
    }

    // The engines' generic `send`/`handle` are instantiated in the driver's
    // crate; `#[inline]` lets these per-message calls inline there.

    /// Extra delay before a message starts transmitting.
    #[inline]
    pub(crate) fn injection_jitter(&mut self) -> Duration {
        Self::draw(&mut self.rng, self.injection_max_ps)
    }

    /// Extra per-destination delay for an unordered message.
    #[inline]
    pub(crate) fn traversal_jitter(&mut self) -> Duration {
        Self::draw(&mut self.rng, self.traversal_max_ps)
    }

    #[inline]
    fn draw(rng: &mut Option<DetRng>, max_ps: u64) -> Duration {
        match rng {
            Some(rng) if max_ps > 0 => Duration::from_ps(rng.below(max_ps + 1)),
            _ => Duration::ZERO,
        }
    }
}

/// Internal interconnect events, scheduled on the driver's event queue.
///
/// Every variant is a small handle: the message lives in the driver's
/// [`MsgArena`], so a broadcast fans out as `dests.len()` copies of one
/// 8-byte [`MsgRef`], not `dests.len()` deep clones of the payload. A
/// variant that carried a message by value would grow every queued
/// event to the payload's size. Not `Clone`: the fabric counts the events
/// that carry each [`FlightRef`], so a copied event would be consumed
/// twice.
#[derive(Debug)]
pub enum NetEvent<P> {
    /// The sender link finished transmitting: the message enters the core.
    /// The marker ties the handle to the arena's payload type `P`.
    TxDone(MsgRef, PhantomData<fn() -> P>),
    /// The message reached `dst`'s link after the core traversal.
    RxArrive {
        /// Receiving node.
        dst: NodeId,
        /// Arena handle to the message (shared across the fan-out).
        msg: MsgRef,
        /// Global sequence for totally ordered messages.
        order: Option<u64>,
    },
    /// The receiver link finished; the message is delivered to the node.
    Deliver {
        /// Receiving node.
        dst: NodeId,
        /// Arena handle to the message (shared across the fan-out).
        msg: MsgRef,
        /// Global sequence for totally ordered messages.
        order: Option<u64>,
    },
    /// Fabric only: a forwarding-tree node's in-link finished crossing
    /// (see [`crate::fabric`]; never scheduled by the crossbar).
    Hop {
        /// The transmission's slot in the fabric's flight slab, which
        /// holds the message handle and the forwarding tree. The slot
        /// counts the events carrying its handle and is recycled after
        /// the last one is handled.
        flight: FlightRef,
        /// Index of the tree node whose in-link completed.
        node: u32,
        /// How many times this crossing already failed (reliable
        /// transport retransmission count; 0 on a first attempt).
        attempt: u32,
    },
    /// Fabric only: the reliable transport's retransmission timer fired
    /// for a lost crossing — re-enqueue it on its link.
    Resend {
        /// The transmission's slot in the fabric's flight slab (counted
        /// like a `Hop`'s).
        flight: FlightRef,
        /// Index of the tree node whose crossing is retried.
        node: u32,
        /// Failed attempts so far (the retry about to start is this one).
        attempt: u32,
    },
}

/// A completed delivery handed to a node's controller.
///
/// The delivery *transfers* one arena reference to the driver: after the
/// controllers have consumed the message, the driver must
/// [`MsgArena::release`] the handle.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receiving node.
    pub dst: NodeId,
    /// Arena handle to the delivered message (shared across the fan-out's
    /// destinations).
    pub msg: MsgRef,
    /// Global total-order sequence (for [`Ordered::Total`] messages).
    pub order: Option<u64>,
}

/// The outcome of crossbar steps: events to schedule plus deliveries.
///
/// [`Crossbar::send`] and [`Crossbar::handle`] *append* to this buffer;
/// the driver drains both vectors after each call and reuses the same
/// `NetStep` for the next one, so no per-event allocation survives warmup.
#[derive(Debug)]
pub struct NetStep<P> {
    /// Future events the driver must schedule.
    pub schedule: Vec<(Time, NetEvent<P>)>,
    /// Messages that completed delivery at the current instant.
    pub deliveries: Vec<Delivery>,
}

// Manual impl: the derived one would demand `P: Default` for no reason.
impl<P> Default for NetStep<P> {
    fn default() -> Self {
        NetStep::new()
    }
}

impl<P> NetStep<P> {
    /// An empty step buffer.
    pub fn new() -> Self {
        NetStep {
            schedule: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Empties both vectors, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.schedule.clear();
        self.deliveries.clear();
    }

    /// True when nothing is scheduled or delivered.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty() && self.deliveries.is_empty()
    }
}

/// Per-link accounting.
#[derive(Debug, Default, Clone)]
struct LinkState {
    busy: BusyTracker,
    bytes: u64,
    messages: u64,
}

/// The crossbar interconnect. See the module docs for the model.
#[derive(Debug)]
pub struct Crossbar<P> {
    cfg: NetConfig,
    cost: MsgCost,
    /// One endpoint link per node, indexed by node id.
    links: Vec<LinkState>,
    /// `link_ids[i] == i`: backs [`Crossbar::incident_links`].
    link_ids: Vec<u32>,
    next_order: u64,
    _marker: PhantomData<P>,
}

impl<P> Crossbar<P> {
    /// Builds a crossbar for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the node count is zero or the bandwidth is zero.
    pub fn new(cfg: NetConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(cfg.link_mbps > 0, "bandwidth must be positive");
        assert!(cfg.broadcast_cost_multiplier >= 1);
        Crossbar {
            cost: MsgCost::new(&cfg),
            links: vec![LinkState::default(); cfg.nodes as usize],
            link_ids: (0..u32::from(cfg.nodes)).collect(),
            next_order: 0,
            cfg,
            _marker: PhantomData,
        }
    }

    /// The configuration this crossbar was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Injects the arena-resident message `msg` at `now`, appending the
    /// event that must be scheduled (the sender-link completion) to `out`.
    /// The handle carries one arena reference, which the core raises to
    /// one per destination.
    ///
    /// # Panics
    ///
    /// Panics if the destination set is empty or the source id is out of
    /// range.
    pub fn send(&mut self, now: Time, msg: MsgRef, arena: &MsgArena<P>, out: &mut NetStep<P>) {
        let m = arena.get(msg);
        assert!(!m.dests.is_empty(), "message with no destinations");
        assert!((m.src.index()) < self.links.len(), "bad source node");
        let eff = self.cost.effective_size(m);
        let tx_time = Duration::transmission(eff, self.cfg.link_mbps);
        let inject_delay = self.cost.injection_jitter();
        let link = &mut self.links[m.src.index()];
        let start = (now + inject_delay).max(link.busy.busy_until());
        let end = start + tx_time;
        link.busy.mark_busy(start, end);
        link.bytes += eff;
        link.messages += 1;
        out.schedule.push((end, NetEvent::TxDone(msg, PhantomData)));
    }

    /// Advances an internal event, appending follow-up events and finished
    /// deliveries to `out`. `now` must equal the time the event was
    /// scheduled for. `arena` is the driver-owned message arena the
    /// events' handles point into.
    pub fn handle(
        &mut self,
        now: Time,
        event: NetEvent<P>,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        match event {
            NetEvent::TxDone(msg, _) => self.enter_core(now, msg, arena, out),
            NetEvent::RxArrive { dst, msg, order } => self.arrive(now, dst, msg, order, arena, out),
            NetEvent::Deliver { dst, msg, order } => {
                out.deliveries.push(Delivery { dst, msg, order });
            }
            NetEvent::Hop { .. } | NetEvent::Resend { .. } => {
                unreachable!("fabric-only event reached the crossbar")
            }
        }
    }

    /// Number of links: one endpoint link per node, link `i` being node
    /// `i`'s.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Busy-time tracker of endpoint link `i` (for the adaptive
    /// mechanism's sampling and for utilization reports).
    pub fn link_tracker(&self, i: usize) -> &BusyTracker {
        &self.links[i].busy
    }

    /// Total effective bytes pushed through endpoint link `i` (both
    /// directions).
    pub fn link_bytes(&self, i: usize) -> u64 {
        self.links[i].bytes
    }

    /// Total messages (tx + rx) through endpoint link `i`.
    pub fn link_messages(&self, i: usize) -> u64 {
        self.links[i].messages
    }

    /// Ids of the links incident to `node`: its own endpoint link,
    /// `[node]`.
    pub fn incident_links(&self, node: NodeId) -> &[u32] {
        std::slice::from_ref(&self.link_ids[node.index()])
    }

    fn enter_core(
        &mut self,
        now: Time,
        msg: MsgRef,
        arena: &mut MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        // One arena slot per transmission: every destination's RxArrive
        // carries the same handle, and the emission's one reference
        // becomes one per delivery.
        arena.retain(msg, arena.get(msg).dests.len() as u32 - 1);
        let m = arena.get(msg);
        let order = match m.ordered {
            Ordered::Total => {
                let o = self.next_order;
                self.next_order += 1;
                Some(o)
            }
            Ordered::None => None,
        };
        for dst in m.dests.iter() {
            let extra = match m.ordered {
                // Per-destination jitter would break the total order.
                Ordered::Total => Duration::ZERO,
                Ordered::None => self.cost.traversal_jitter(),
            };
            let at = now + self.cfg.traversal + extra;
            out.schedule
                .push((at, NetEvent::RxArrive { dst, msg, order }));
        }
    }

    fn arrive(
        &mut self,
        now: Time,
        dst: NodeId,
        msg: MsgRef,
        order: Option<u64>,
        arena: &MsgArena<P>,
        out: &mut NetStep<P>,
    ) {
        let eff = self.cost.effective_size(arena.get(msg));
        let rx_time = Duration::transmission(eff, self.cfg.link_mbps);
        let link = &mut self.links[dst.index()];
        let start = now.max(link.busy.busy_until());
        let end = start + rx_time;
        link.busy.mark_busy(start, end);
        link.bytes += eff;
        link.messages += 1;
        out.schedule
            .push((end, NetEvent::Deliver { dst, msg, order }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bash_kernel::EventQueue;

    /// Drives sends + network to completion; returns deliveries with times
    /// and the payload resolved through the arena. Delivery references are
    /// deliberately *not* released, so [`MsgRef`] identity comparisons stay
    /// meaningful after the drive.
    fn drive(
        net: &mut Crossbar<&'static str>,
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
        let mut arena = MsgArena::new();
        let mut out = Vec::new();
        let mut step = NetStep::new();
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Send(m) => {
                    let r = arena.alloc(m, 1);
                    net.send(now, r, &arena, &mut step);
                }
                Ev::Net(ne) => net.handle(now, ne, &mut arena, &mut step),
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

    fn cfg(nodes: u16, mbps: u64) -> NetConfig {
        NetConfig::new(nodes, mbps)
    }

    #[test]
    fn unicast_latency_is_tx_plus_traversal_plus_rx() {
        // 8 bytes at 1600 MB/s = 5 ns per link; 5 + 50 + 5 = 60 ns.
        let mut net = Crossbar::new(cfg(4, 1600));
        let m = Message::unordered(NodeId(0), NodeId(1), crate::VnetId::DATA, 8, "m");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Time::from_ns(60));
        assert_eq!(out[0].1.dst, NodeId(1));
        assert_eq!(out[0].1.order, None);
    }

    #[test]
    fn sender_link_serializes_messages() {
        // Two 72-byte messages at 1600 MB/s: 45 ns each on the sender link.
        // First delivers at 45+50+45 = 140; second starts tx at 45, so
        // 90+50+45 = 185.
        let mut net = Crossbar::new(cfg(4, 1600));
        let m1 = Message::unordered(NodeId(0), NodeId(1), crate::VnetId::DATA, 72, "a");
        let m2 = Message::unordered(NodeId(0), NodeId(2), crate::VnetId::DATA, 72, "b");
        let out = drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)]);
        let times: Vec<u64> = out.iter().map(|(t, _, _)| t.as_ns()).collect();
        assert_eq!(times, vec![140, 185]);
    }

    #[test]
    fn receiver_link_serializes_messages() {
        // Senders 0 and 1 each send 72B to node 2 at the same time; the
        // second to arrive queues behind the first on node 2's link.
        let mut net = Crossbar::new(cfg(4, 1600));
        let m1 = Message::unordered(NodeId(0), NodeId(2), crate::VnetId::DATA, 72, "a");
        let m2 = Message::unordered(NodeId(1), NodeId(2), crate::VnetId::DATA, 72, "b");
        let out = drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)]);
        let times: Vec<u64> = out.iter().map(|(t, _, _)| t.as_ns()).collect();
        assert_eq!(times, vec![140, 185]);
    }

    #[test]
    fn broadcast_reaches_all_nodes_including_sender() {
        let mut net = Crossbar::new(cfg(4, 1600));
        let m = Message::ordered(NodeId(1), NodeSet::all(4), 8, "req");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 4);
        let dsts: Vec<u16> = out.iter().map(|(_, d, _)| d.dst.0).collect();
        assert_eq!(dsts, vec![0, 1, 2, 3]);
        assert!(out.iter().all(|(_, d, _)| d.order == Some(0)));
    }

    #[test]
    fn total_order_is_consistent_across_receivers() {
        // Node 0's link is pre-loaded with a large data message so its
        // broadcast enters the core *after* node 1's, even though it was
        // sent first. All receivers must still see one consistent order.
        let mut net = Crossbar::new(cfg(3, 100)); // slow links: 8B = 80 ns
        let preload = Message::unordered(NodeId(0), NodeId(1), crate::VnetId::DATA, 72, "big");
        let b0 = Message::ordered(NodeId(0), NodeSet::all(3), 8, "from0");
        let b1 = Message::ordered(NodeId(1), NodeSet::all(3), 8, "from1");
        let out = drive(
            &mut net,
            vec![
                (Time::ZERO, preload),
                (Time::from_ns(1), b0),
                (Time::from_ns(2), b1),
            ],
        );
        // Collect per-receiver observation order of the two broadcasts.
        let mut per_node: std::collections::HashMap<u16, Vec<&str>> = Default::default();
        for (_, d, payload) in &out {
            if d.order.is_some() {
                per_node.entry(d.dst.0).or_default().push(*payload);
            }
        }
        assert_eq!(per_node.len(), 3);
        let reference = per_node[&0].clone();
        assert_eq!(reference, vec!["from1", "from0"]); // node 1 entered first
        for v in per_node.values() {
            assert_eq!(*v, reference);
        }
    }

    #[test]
    fn broadcast_cost_multiplier_inflates_only_full_broadcasts() {
        let mut c = cfg(4, 1600);
        c.broadcast_cost_multiplier = 4;
        let mut net = Crossbar::new(c);
        // Full broadcast: 8B * 4 = 32B → 20 ns per link; 20+50+20 = 90 ns.
        let b = Message::ordered(NodeId(0), NodeSet::all(4), 8, "bcast");
        let out = drive(&mut net, vec![(Time::ZERO, b)]);
        assert!(out.iter().all(|(t, _, _)| t.as_ns() == 90));
        // A 3-of-4 multicast is not inflated: 5+50+5 = 60 ns after the
        // link frees at t=20.
        let mut net2 = Crossbar::new({
            let mut c = cfg(4, 1600);
            c.broadcast_cost_multiplier = 4;
            c
        });
        let m = Message::ordered(
            NodeId(0),
            NodeSet::from_nodes([NodeId(0), NodeId(1), NodeId(2)]),
            8,
            "multi",
        );
        let out2 = drive(&mut net2, vec![(Time::ZERO, m)]);
        assert!(out2.iter().all(|(t, _, _)| t.as_ns() == 60));
    }

    #[test]
    fn utilization_accounts_tx_and_rx_on_shared_link() {
        let mut net = Crossbar::new(cfg(2, 800)); // 8B = 10 ns
        let m = Message::unordered(NodeId(0), NodeId(1), crate::VnetId::DATA, 8, "x");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        let end = out[0].0; // 10 + 50 + 10 = 70 ns
        assert_eq!(end.as_ns(), 70);
        // Sender link busy 10 of 70 ns; receiver link busy 10 of 70 ns.
        for link in 0..net.link_count() {
            assert!((net.link_tracker(link).utilization(end) - 10.0 / 70.0).abs() < 1e-9);
        }
        assert_eq!(net.link_bytes(0), 8);
        assert_eq!(net.link_messages(1), 1);
        assert_eq!(net.incident_links(NodeId(1)), &[1]);
    }

    #[test]
    fn self_delivery_charges_link_twice() {
        // A dualcast {self, other} occupies the sender link once for tx and
        // once for its own rx copy.
        let mut net = Crossbar::new(cfg(2, 800));
        let m = Message::ordered(NodeId(0), NodeSet::all(2), 8, "dual");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 2);
        assert_eq!(net.link_bytes(0), 16); // 8 tx + 8 rx
        assert_eq!(net.link_bytes(1), 8);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let jittered = |seed: u64| {
            let mut c = cfg(4, 1600);
            c.jitter = Jitter::Uniform {
                injection_max: Duration::from_ns(20),
                traversal_max: Duration::from_ns(30),
                seed,
            };
            let mut net = Crossbar::new(c);
            let m1 = Message::unordered(NodeId(0), NodeId(1), crate::VnetId::DATA, 8, "a");
            let m2 = Message::unordered(NodeId(2), NodeId(3), crate::VnetId::DATA, 8, "b");
            drive(&mut net, vec![(Time::ZERO, m1), (Time::ZERO, m2)])
                .iter()
                .map(|(t, _, _)| t.as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(jittered(9), jittered(9));
        assert_ne!(jittered(9), jittered(10));
    }

    #[test]
    #[should_panic(expected = "no destinations")]
    fn empty_destination_panics() {
        let mut net: Crossbar<&'static str> = Crossbar::new(cfg(2, 800));
        let m = Message {
            src: NodeId(0),
            dests: NodeSet::EMPTY,
            vnet: crate::VnetId::DATA,
            ordered: Ordered::None,
            size: 8,
            payload: "bad",
        };
        let mut arena = MsgArena::new();
        let r = arena.alloc(m, 1);
        net.send(Time::ZERO, r, &arena, &mut NetStep::new());
    }

    #[test]
    fn broadcast_shares_one_payload_allocation() {
        // All four deliveries of a broadcast must carry the same arena
        // handle (one slot per transmission, not per-destination clones).
        let mut net = Crossbar::new(cfg(4, 1600));
        let m = Message::ordered(NodeId(0), NodeSet::all(4), 8, "shared");
        let out = drive(&mut net, vec![(Time::ZERO, m)]);
        assert_eq!(out.len(), 4);
        let first = out[0].1.msg;
        assert!(out.iter().all(|(_, d, _)| d.msg == first));
    }
}
