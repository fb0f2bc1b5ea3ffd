//! Host-time probes: each drives one layer's public API alone, shaped by
//! the workload's own run (its population, node count, topology,
//! bandwidth, broadcast fraction and block addresses), so a per-layer
//! number can be set beside the end-to-end number it feeds.
//!
//! Every probe returns host ns per operation. Probe loops draw their
//! pseudo-random choices from tables filled before the clock starts, so
//! the timed work is the layer's.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use bash_adaptive::{AdaptorConfig, BandwidthAdaptor};
use bash_coherence::{BlockAddr, BlockTable};
use bash_kernel::{DetRng, Duration, EventQueue, QueueKind, Time};
use bash_net::{
    Interconnect, Message, MsgArena, NetConfig, NetEvent, NetStep, NodeId, NodeSet, TopologyKind,
    VnetId,
};
use bash_workloads::Workload;

/// Pseudo-random draws below `bound`, precomputed (length a power of two).
fn table(seed: u64, bound: u64) -> Vec<u64> {
    let mut rng = DetRng::seed_from(seed);
    (0..4096).map(|_| rng.below(bound.max(1))).collect()
}

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue` schedule + `pop_at` churn at a steady `population`,
/// sized as `System::new` sizes it (`cap`, `horizon`), with every
/// reschedule landing within one link horizon. Returns ns per queue
/// operation (a pop and a schedule are two).
pub fn queue(population: usize, cap: usize, horizon: Duration, ops: u64, seed: u64) -> f64 {
    let h = horizon.as_ps().max(1);
    let deltas = table(seed, h);
    let mut q: EventQueue<u64> = EventQueue::with_kind(QueueKind::Calendar, cap, horizon);
    for i in 0..population {
        q.schedule(Time::from_ps(deltas[i & 4095]), i as u64);
    }
    let pops = ops / 2;
    let mut popped = 0u64;
    let start = Instant::now();
    'churn: while let Some(ts) = q.peek_time() {
        while let Some(e) = q.pop_at(ts) {
            let d = deltas[(e.wrapping_add(popped) & 4095) as usize];
            q.schedule(ts + Duration::from_ps(1 + d), e);
            popped += 1;
            if popped >= pops {
                break 'churn;
            }
        }
    }
    black_box(q.len());
    ns_per(start, 2 * popped)
}

/// The network shape of one simulated point.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    /// Interconnect topology.
    pub topology: TopologyKind,
    /// Endpoints.
    pub nodes: u16,
    /// Link bandwidth in MB/s.
    pub mbps: u64,
    /// Share of requests sent to every node (the rest are dualcasts to
    /// the requestor and a home).
    pub broadcast_fraction: f64,
}

/// `Interconnect::send` + `handle` under request rounds of the given
/// shapes: every node injects one 8-byte ordered request per round, the
/// round drains, and the next starts. Returns ns per delivery (the loop's
/// own event queue is part of the cost, as it is in `System`).
pub fn interconnect(shapes: &[NetShape], deliveries: u64, seed: u64) -> f64 {
    enum Ev {
        Send(Message<u32>),
        Net(NetEvent<u32>),
    }
    let per_shape = deliveries / shapes.len().max(1) as u64;
    let mut total_ns = 0f64;
    let mut delivered = 0u64;
    for (k, shape) in shapes.iter().enumerate() {
        let n = shape.nodes as u64;
        let homes = table(seed ^ k as u64, n);
        let casts = table(seed ^ 0xCA57 ^ k as u64, 1 << 20);
        let cutoff = (shape.broadcast_fraction * (1u64 << 20) as f64) as u64;
        let all = NodeSet::all(shape.nodes as usize);
        let mut cfg = NetConfig::new(shape.nodes, shape.mbps);
        cfg.topology = shape.topology;
        let mut net: Interconnect<u32> = Interconnect::new(cfg);
        let mut arena = MsgArena::with_capacity(shape.nodes as usize * 4);
        let mut step = NetStep::new();
        let horizon = Duration::from_ns(50) + Duration::transmission(72, shape.mbps);
        let mut q: EventQueue<Ev> =
            EventQueue::with_kind(QueueKind::Calendar, shape.nodes as usize * 16, horizon);
        let mut now = Time::ZERO;
        let mut done = 0u64;
        let mut draw = 0usize;
        let start = Instant::now();
        while done < per_shape {
            for src in 0..shape.nodes {
                draw = (draw + 1) & 4095;
                let dests = if casts[draw] < cutoff {
                    all.clone()
                } else {
                    NodeSet::from_nodes([NodeId(src), NodeId(homes[draw] as u16)])
                };
                q.schedule(now, Ev::Send(Message::ordered(NodeId(src), dests, 8, 0)));
            }
            while let Some((t, ev)) = q.pop() {
                now = t;
                match ev {
                    Ev::Send(m) => net.send(t, m, &mut arena, &mut step),
                    Ev::Net(e) => net.handle(t, e, &mut arena, &mut step),
                }
                for (at, e) in step.schedule.drain(..) {
                    q.schedule(at, Ev::Net(e));
                }
                for d in step.deliveries.drain(..) {
                    arena.release(d.msg);
                    done += 1;
                }
            }
        }
        total_ns += start.elapsed().as_nanos() as f64;
        delivered += done;
    }
    total_ns / delivered.max(1) as f64
}

/// `MsgArena` alloc, get and release with `population` messages live.
/// Returns ns per arena call.
pub fn arena(population: usize, iters: u64) -> f64 {
    let population = population.max(1);
    let mut arena: MsgArena<u64> = MsgArena::with_capacity(population);
    let msg = |i: u64| Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 72, i);
    let mut live: VecDeque<_> = (0..population as u64)
        .map(|i| arena.alloc(msg(i), 1))
        .collect();
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..iters {
        let r = live.pop_front().expect("population is positive");
        acc = acc.wrapping_add(arena.get(r).payload);
        arena.release(r);
        live.push_back(arena.alloc(msg(i), 1));
    }
    black_box(acc);
    ns_per(start, 3 * iters)
}

/// `NodeSet` insert, union, superset and iterate at `nodes` nodes: a
/// sharer set grows one node at a time and is reset now and then, and
/// each step unions it with a request mask that is a full cast (the
/// whole system, or the requestor's `cluster` under a hierarchy) with
/// probability `broadcast_fraction` and a dualcast otherwise. Returns ns
/// per set operation.
pub fn nodeset(nodes: u16, cluster: Option<u16>, broadcast_fraction: f64, iters: u64) -> f64 {
    let picks = table(0x5E7, nodes as u64);
    let casts = table(0xCA57, 1 << 20);
    let cutoff = (broadcast_fraction * (1u64 << 20) as f64) as u64;
    let full = NodeSet::all(nodes as usize);
    let mut sharers = NodeSet::EMPTY;
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..iters as usize {
        let a = NodeId(picks[i & 4095] as u16);
        let b = NodeId(picks[(i + 7) & 4095] as u16);
        sharers.insert(a);
        let mask = if casts[i & 4095] < cutoff {
            match cluster {
                Some(c) => {
                    let first = a.0 / c * c;
                    NodeSet::range(first, first + c)
                }
                None => full.clone(),
            }
        } else {
            NodeSet::from_nodes([a, b])
        };
        if full.is_superset(&sharers) {
            acc += 1;
        }
        for n in mask.union(&sharers).iter() {
            acc = acc.wrapping_add(n.0 as u64);
        }
        if i % 29 == 0 {
            sharers.clear();
        }
    }
    black_box(acc);
    ns_per(start, 4 * iters)
}

/// `BlockTable` get and insert over each node's own block addresses
/// (one table per node, as each controller keeps one), repeated for
/// `passes` passes. Returns ns per probe.
pub fn blocktable(per_node_blocks: &[Vec<BlockAddr>], passes: u32) -> f64 {
    let mut tables: Vec<BlockTable<u64>> =
        per_node_blocks.iter().map(|_| BlockTable::new()).collect();
    let mut probes = 0u64;
    let start = Instant::now();
    for _ in 0..passes {
        for (t, blocks) in tables.iter_mut().zip(per_node_blocks) {
            for &b in blocks {
                match t.get_mut(b) {
                    Some(v) => *v += 1,
                    None => {
                        t.or_insert_with(b, || 0);
                    }
                }
            }
            probes += blocks.len() as u64;
        }
    }
    black_box(tables.iter().map(BlockTable::len).sum::<usize>());
    ns_per(start, probes)
}

/// `BandwidthAdaptor::sample_window` for every node once per tick, with
/// busy times scattered around `utilization`. Returns ns per tick.
pub fn adaptor_sample(nodes: u16, utilization: f64, ticks: u64) -> f64 {
    let cfg = AdaptorConfig::paper_default();
    let window = Duration::from_cycles(cfg.sampling_interval_cycles).as_ps();
    let mut adaptors: Vec<BandwidthAdaptor> = (0..nodes)
        .map(|i| BandwidthAdaptor::new(&cfg, i as u64))
        .collect();
    // Busy times within ±25% of the window around the run's utilization.
    let centre = (utilization.clamp(0.0, 1.0) * window as f64) as u64;
    let spread = table(0xADA, window / 2);
    let busy: Vec<u64> = spread
        .iter()
        .map(|&s| (centre + s).saturating_sub(window / 4).min(window))
        .collect();
    let mut acc = 0u64;
    let start = Instant::now();
    for t in 0..ticks as usize {
        for (i, a) in adaptors.iter_mut().enumerate() {
            a.sample_window(busy[(t + i) & 4095], window);
        }
        acc = acc.wrapping_add(adaptors[t % adaptors.len()].policy_value() as u64);
    }
    black_box(acc);
    ns_per(start, ticks)
}

/// `Workload::next_item` round-robin over `nodes` nodes. Returns ns per
/// generated item.
pub fn next_item(workload: &mut dyn Workload, nodes: u16, items: u64) -> f64 {
    let mut acc = 0u64;
    let start = Instant::now();
    for k in 0..items {
        let node = NodeId((k % nodes as u64) as u16);
        if let Some(item) = workload.next_item(node, Time::from_ns(k)) {
            acc = acc.wrapping_add(item.op.block().0);
        }
    }
    black_box(acc);
    ns_per(start, items)
}
