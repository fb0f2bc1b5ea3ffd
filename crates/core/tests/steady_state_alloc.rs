//! Steady-state allocation pin for the whole event loop.
//!
//! A counting global allocator records every `alloc`, `alloc_zeroed` and
//! `realloc` on the thread that makes it. Each run is built and warmed up
//! for 20 µs of simulated time, and then the calls made while it runs a
//! 100 µs measured window are divided by the events that window
//! processed: a count per event that no host changes. What the loop
//! still allocates is chiefly the calendar queue's bucket buffers, which
//! a drained run hands to a small spare list; a queue that freed each
//! drained buffer and grew a new one made about 0.37 calls per event on
//! the crossbar point and 0.22 on the mesh point.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use bash_coherence::ProtocolKind;
use bash_kernel::{Duration, Time};
use bash_net::TopologyKind;
use bash_sim::{System, SystemConfig};
use bash_workloads::catalog;

/// Forwards to the system allocator, counting calls per thread.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: Duration = Duration::from_ns(20_000);
const WINDOW: Duration = Duration::from_ns(100_000);

/// Allocator calls per event over the measured window of `cfg` driven by
/// the catalog scenario `scenario`.
fn calls_per_event(cfg: SystemConfig, scenario: &str) -> f64 {
    let workload = catalog::build(scenario, cfg.nodes, cfg.seed).expect("a catalog scenario");
    let mut sys = System::new(cfg, workload);
    let end = Time::ZERO + WARMUP + WINDOW;
    sys.try_run_until(Time::ZERO + WARMUP)
        .expect("the warmup runs clean");
    sys.begin_measurement();
    let before = CALLS.with(Cell::get);
    sys.try_run_until(end).expect("the window runs clean");
    let calls = CALLS.with(Cell::get) - before;
    let events = sys.try_finish(end).expect("stats").events_processed;
    assert!(events > 10_000, "only {events} events in the window");
    calls as f64 / events as f64
}

#[test]
fn crossbar_window_makes_under_a_tenth_of_a_call_per_event() {
    let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 16, 400);
    let per_event = calls_per_event(cfg, "locking");
    assert!(per_event <= 0.1, "{per_event:.4} calls per event");
}

#[test]
fn mesh_window_makes_under_a_twentieth_of_a_call_per_event() {
    let cfg = SystemConfig::paper_default(ProtocolKind::Bash, 64, 1600)
        .with_topology(TopologyKind::Mesh2D);
    let per_event = calls_per_event(cfg, "zipf");
    assert!(per_event <= 0.05, "{per_event:.4} calls per event");
}
