//! Steady-state allocation gate for both interconnect engines.
//!
//! A counting global allocator records every `alloc`, `alloc_zeroed` and
//! `realloc` made while a thread-local flag is set, and the loop below
//! sets it only around [`Interconnect::inject`] and
//! [`Interconnect::handle`]: the event queue, the message arena and the
//! deliveries' release belong to the test and stay uncounted. Traffic comes
//! in rounds, as in the simulator's closed loop: every node sends one
//! message from a seeded mix of ordered full broadcasts, ordered
//! `{self, home}` dualcasts and unordered data unicasts, and the round
//! drains before the next starts. After a warmup, sending and handling
//! must allocate nothing, on a 64-node mesh and on the 16-node crossbar.
//! The fabric's one-time allocations are a source's first broadcast
//! (which builds the tree it caches) and its slab and hold-back rings
//! growing to their high-water marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bash_kernel::{DetRng, EventQueue, Time};
use bash_net::{
    Interconnect, Message, MsgArena, NetConfig, NetEvent, NetStep, NodeId, NodeSet, TopologyKind,
    VnetId,
};

/// Forwards to the system allocator, counting calls made while the
/// current thread's `COUNTING` flag is set.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns how many allocations it
/// made.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const WARMUP_SENDS: u64 = 1_000;
const MEASURED_SENDS: u64 = 10_000;

/// What one engine did over the measured sends.
struct Measured {
    allocations: u64,
    /// Most deliveries one `handle` call made to one endpoint: the copy
    /// whose turn came plus the copies held back behind it.
    largest_release: usize,
}

/// Drives the seeded send mix through `net` and counts the allocations
/// `inject` and `handle` make once `WARMUP_SENDS` sends have entered.
fn run(mut net: Interconnect<u32>, seed: u64) -> Measured {
    let n = net.config().nodes;
    let mut rng = DetRng::seed_from(seed);
    let mut arena = MsgArena::with_capacity(1024);
    // The step buffers are the caller's: sized once here, so growth of
    // the test's own vectors is not charged to the engine.
    let mut step = NetStep::new();
    step.schedule.reserve(4096);
    step.deliveries.reserve(4096);
    let mut q: EventQueue<NetEvent<u32>> = EventQueue::new();
    let mut per_dst = vec![0usize; n as usize];
    let mut measured = Measured {
        allocations: 0,
        largest_release: 0,
    };
    let (mut sent, mut now) = (0u64, Time::ZERO);
    while sent < WARMUP_SENDS + MEASURED_SENDS {
        for src in (0..n).map(NodeId) {
            // The first round is all broadcasts: a source's first one
            // builds the tree the fabric then caches for the whole run.
            let kind = if sent < n as u64 { 0 } else { rng.below(3) };
            let msg = match kind {
                0 => Message::ordered(src, NodeSet::all(n as usize), 8, 0),
                1 => {
                    let home = NodeId(rng.below(n as u64) as u16);
                    Message::ordered(src, NodeSet::from_nodes([src, home]), 8, 1)
                }
                _ => {
                    let dst = NodeId(rng.below(n as u64) as u16);
                    Message::unordered(src, dst, VnetId::DATA, 72, 2)
                }
            };
            let msg = arena.alloc(msg, 1);
            let made = counted(|| net.inject(now, msg, &mut arena, &mut step));
            if sent >= WARMUP_SENDS {
                measured.allocations += made;
            }
            sent += 1;
            for (at, e) in step.schedule.drain(..) {
                q.schedule(at, e);
            }
        }
        while let Some((t, e)) = q.pop() {
            now = t;
            let made = counted(|| net.handle(now, e, &mut arena, &mut step));
            for (at, e) in step.schedule.drain(..) {
                q.schedule(at, e);
            }
            for d in step.deliveries.drain(..) {
                per_dst[d.dst.index()] += 1;
                arena.release(d.msg);
            }
            if sent >= WARMUP_SENDS {
                measured.allocations += made;
                let burst = per_dst.iter().copied().max().unwrap_or(0);
                measured.largest_release = measured.largest_release.max(burst);
            }
            per_dst.fill(0);
        }
    }
    assert_eq!(arena.live(), 0, "every message was delivered and released");
    measured
}

#[test]
fn send_and_handle_allocate_nothing_after_warmup() {
    let mut mesh = NetConfig::new(64, 1600);
    mesh.topology = TopologyKind::Mesh2D;
    let fabric = run(Interconnect::new(mesh), 7);
    assert_eq!(
        fabric.allocations, 0,
        "the 64-node mesh allocated in steady state"
    );
    // A release of k copies at once means k - 1 of them were held back
    // together; past 11 a B-tree would have split its first leaf.
    let held = fabric.largest_release.saturating_sub(1);
    assert!(
        held > 11,
        "the measured sends held back only {held} copies at one endpoint"
    );

    let crossbar = run(Interconnect::new(NetConfig::new(16, 1600)), 7);
    assert_eq!(
        crossbar.allocations, 0,
        "the 16-node crossbar allocated in steady state"
    );
}
