//! Simulator-engine microbenchmarks: event queue, network, bitsets, cache
//! array and end-to-end event throughput. These guard the simulator's own
//! performance (the experiments run millions of events per data point).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bash::SimBuilder;
use bash_coherence::cache::{CacheArray, CacheGeometry, Mosi};
use bash_coherence::types::{BlockAddr, BlockData};
use bash_coherence::ProtocolKind;
use bash_kernel::{Duration, EventQueue, Time};
use bash_net::{Crossbar, Message, MsgArena, NetConfig, NetStep, NodeId, NodeSet, VnetId};
use bash_sim::{System, SystemConfig};
use bash_workloads::LockingMicrobench;

fn event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.schedule(Time::from_ns((i * 7919) % 4096), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
    g.finish();
}

fn node_set_ops(c: &mut Criterion) {
    let full = NodeSet::all(64);
    let small = NodeSet::from_nodes([NodeId(3), NodeId(17), NodeId(42)]);
    c.bench_function("engine/nodeset_superset", |b| {
        b.iter(|| std::hint::black_box(&full).is_superset(std::hint::black_box(&small)))
    });
    c.bench_function("engine/nodeset_iter64", |b| {
        b.iter(|| {
            std::hint::black_box(&full)
                .iter()
                .map(|n| n.0 as u64)
                .sum::<u64>()
        })
    });
}

fn cache_array(c: &mut Criterion) {
    c.bench_function("engine/cache_touch_hit", |b| {
        let mut cache = CacheArray::new(CacheGeometry {
            sets: 1024,
            ways: 4,
        });
        for i in 0..4096u64 {
            cache.insert(BlockAddr(i), Mosi::S, BlockData::ZERO);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            cache.touch(BlockAddr(i))
        })
    });
}

fn crossbar_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/crossbar");
    g.throughput(Throughput::Elements(1));
    g.bench_function("broadcast_64_nodes", |b| {
        let mut net: Crossbar<u64> = Crossbar::new(NetConfig::new(64, 1600));
        let mut q = EventQueue::new();
        let mut arena = MsgArena::new();
        let mut step = NetStep::new();
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Duration::from_ns(1000);
            let msg = arena.alloc(Message::ordered(NodeId(0), NodeSet::all(64), 8, 42u64), 1);
            net.send(now, msg, &arena, &mut step);
            for (t, e) in step.schedule.drain(..) {
                q.schedule(t, e);
            }
            let mut delivered = 0;
            while let Some((t, e)) = q.pop() {
                net.handle(t, e, &mut arena, &mut step);
                for (t2, e2) in step.schedule.drain(..) {
                    q.schedule(t2, e2);
                }
                delivered += step.deliveries.len();
                for d in step.deliveries.drain(..) {
                    arena.release(d.msg);
                }
            }
            delivered
        })
    });
    g.finish();
}

fn unicast_point_to_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/crossbar_unicast");
    g.throughput(Throughput::Elements(1));
    g.bench_function("unicast", |b| {
        let mut net: Crossbar<u64> = Crossbar::new(NetConfig::new(4, 1600));
        let mut q = EventQueue::new();
        let mut arena = MsgArena::new();
        let mut step = NetStep::new();
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Duration::from_ns(500);
            let msg = arena.alloc(
                Message::unordered(NodeId(0), NodeId(2), VnetId::DATA, 72, 1u64),
                1,
            );
            net.send(now, msg, &arena, &mut step);
            for (t, e) in step.schedule.drain(..) {
                q.schedule(t, e);
            }
            while let Some((t, e)) = q.pop() {
                net.handle(t, e, &mut arena, &mut step);
                for (t2, e2) in step.schedule.drain(..) {
                    q.schedule(t2, e2);
                }
                for d in step.deliveries.drain(..) {
                    arena.release(d.msg);
                }
            }
        })
    });
    g.finish();
}

/// The headline engine metric: simulated events per wall-clock second on a
/// fixed end-to-end run (the number `scripts/bench_baseline.sh` records in
/// `BENCH_engine.json`).
fn events_per_sec(c: &mut Criterion) {
    let run = |proto: ProtocolKind| {
        let cfg = SystemConfig::paper_default(proto, 16, 1600)
            .with_cache(CacheGeometry { sets: 256, ways: 4 });
        let wl = LockingMicrobench::new(16, 256, Duration::ZERO, 1);
        System::run(
            cfg,
            wl,
            Duration::from_ns(10_000),
            Duration::from_ns(50_000),
        )
    };
    let mut g = c.benchmark_group("engine/events_per_sec");
    g.sample_size(10);
    for proto in ProtocolKind::ALL {
        // Event counts are deterministic: measure once, then report the
        // benchmark's wall time as events/second throughput.
        let events = run(proto).events_processed;
        g.throughput(Throughput::Elements(events));
        g.bench_function(proto.name(), |b| b.iter(|| run(proto).events_processed));
    }
    g.finish();
}

/// The parallel sweep executor against its own sequential mode: the same
/// (bandwidth × seed) grid at `.threads(1)` and at the default thread
/// count. The speedup ratio is the tentpole's multi-core win.
fn sweep_parallelism(c: &mut Criterion) {
    let grid = |threads: usize| {
        SimBuilder::new(ProtocolKind::Bash)
            .nodes(8)
            .bandwidths([200, 400, 800, 1600, 3200, 6400])
            .seeds(2)
            .locking_microbench(128, Duration::ZERO)
            .warmup_ns(10_000)
            .measure_ns(40_000)
            .threads(threads)
            .run_sweep()
            .len()
    };
    let mut g = c.benchmark_group("engine/sweep");
    g.sample_size(10);
    g.bench_function("serial_threads1", |b| b.iter(|| grid(1)));
    g.bench_function("parallel_auto", |b| b.iter(|| grid(0)));
    g.finish();
}

criterion_group!(
    engine,
    event_queue,
    node_set_ops,
    cache_array,
    crossbar_broadcast,
    unicast_point_to_point,
    events_per_sec,
    sweep_parallelism,
);
criterion_main!(engine);
