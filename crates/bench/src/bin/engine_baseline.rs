//! Emits `BENCH_engine.json`: the repo's engine-performance baseline.
//!
//! Five numbers anchor the perf trajectory:
//!
//! * **events/sec** — single-threaded simulated-event throughput of a fixed
//!   end-to-end run, one value per protocol (the zero-allocation hot path's
//!   metric);
//! * **sweep wall time** — the same (bandwidth × seed) grid executed with
//!   `.threads(1)` and with the default thread pool (the parallel sweep
//!   executor's metric), plus the resulting speedup. A spin test first
//!   measures the host's effective parallelism; below 1.5 the parallel
//!   point is skipped and annotated instead of publishing noise as a
//!   "speedup";
//! * **calendar vs heap** — a raw queue-churn point at 256-node load
//!   (`calendar_vs_heap_256`): the calendar event queue the engine runs
//!   on against the binary heap it replaced;
//! * **scale** — end-to-end hierarchical events/sec at 256, 1024, and
//!   4096 nodes (sizes the old fixed 256-node bitset could not even build
//!   past), then the process's peak resident set (`peak_rss_mb`, read
//!   from `VmHWM`), which the 4096-node point dominates;
//! * **block tables** — ns per lookup of the coherence controllers'
//!   `BlockTable` against a default-hasher `HashMap`, on dense and
//!   stride-4096 block addresses, for hits and for misses, over many
//!   small per-node tables (the `blocktable` object).
//!
//! End-to-end points time only the measured window: building the system
//! and the warmup run before the clock starts.
//!
//! Usage: `engine_baseline [OUTPUT.json]` (default `BENCH_engine.json`).
//! Run it through `scripts/bench_baseline.sh` for a release build.

use std::collections::HashMap;
use std::time::Instant;

use bash::{Duration, HierarchyConfig, ProtocolKind, SimBuilder, System, SystemConfig, Time};
use bash_coherence::{BlockAddr, BlockTable, CacheGeometry};
use bash_kernel::{pool, EventQueue, QueueKind};
use bash_workloads::LockingMicrobench;

/// Builds and warms up a system outside the clock, then times only the
/// measured window; returns (events processed in it, wall seconds).
fn timed_window(
    cfg: SystemConfig,
    wl: LockingMicrobench,
    warmup: Duration,
    measure: Duration,
) -> (u64, f64) {
    let mut sys = System::new(cfg, wl);
    sys.try_run_until(Time::ZERO + warmup).expect("warmup");
    sys.begin_measurement();
    let t0 = Instant::now();
    let stats = sys
        .try_finish(Time::ZERO + warmup + measure)
        .expect("measured window");
    (stats.events_processed, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` events/sec of the fixed 16-node point for one protocol.
fn events_per_sec(proto: ProtocolKind, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let cfg = SystemConfig::paper_default(proto, 16, 1600)
                .with_cache(CacheGeometry { sets: 256, ways: 4 });
            let wl = LockingMicrobench::new(16, 256, Duration::ZERO, 1);
            let (events, secs) = timed_window(
                cfg,
                wl,
                Duration::from_ns(10_000),
                Duration::from_ns(200_000),
            );
            events as f64 / secs.max(1e-9)
        })
        .fold(0.0, f64::max)
}

/// Queue ops/sec under the hold-model churn a 256-node *snooping* system
/// generates: every node has a broadcast in flight, so one delivery event
/// per (source, destination) pair is pending — 256 × 256 live events,
/// each pop rescheduling a successor a short transmission-time ahead,
/// with same-instant bursts from the fan-outs. At this population the
/// heap's sift path walks ~16 scattered cache lines per op while the
/// calendar stays on its cursor bucket; this isolates the data structure
/// from protocol work.
fn queue_churn_ops_per_sec(queue: QueueKind, reps: usize) -> f64 {
    const NODES: u64 = 256;
    const PER_NODE: u64 = 256;
    const CHURN: u64 = 2_000_000;
    let run = || {
        let live = NODES * PER_NODE;
        let mut q: EventQueue<u64> = EventQueue::with_kind(queue, live as usize, Duration::ZERO);
        for i in 0..live {
            // Fan-out bursts: broadcasts of 256 deliveries share one
            // timestamp.
            q.schedule(Time::from_ns((i / NODES) * 360 % 4096), i);
        }
        let t0 = Instant::now();
        let mut acc = 0u64;
        let mut popped = 0u64;
        // Batched by timestamp: settle on a timestamp once, then drain
        // every event that fires at that instant.
        'churn: while let Some(ts) = q.peek_time() {
            while let Some(e) = q.pop_at(ts) {
                acc = acc.wrapping_add(e);
                // One delta per burst: a broadcast's deliveries move to
                // their next hop together, so fan-outs stay clustered.
                q.schedule(ts + Duration::from_ns(45 + (e / NODES % 8) * 360), e);
                popped += 1;
                if popped >= CHURN {
                    break 'churn;
                }
            }
        }
        std::hint::black_box(acc);
        // One op = one pop + one schedule.
        2.0 * CHURN as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };
    (0..reps).map(|_| run()).fold(0.0, f64::max)
}

/// End-to-end events/sec of a hierarchical BASH run at `nodes` nodes
/// (`cluster`-node snooping clusters under a `banks`-bank spine) — the
/// scale trajectory the adaptive sharer sets and per-block state
/// tables exist for. Short measure window: the point is the per-event
/// cost at population, not a long steady state.
fn scale_events_per_sec(nodes: u16, cluster: u16, banks: u16, reps: usize) -> f64 {
    let run = || {
        let cfg = SystemConfig::paper_default(ProtocolKind::Bash, nodes, 1600)
            .with_cache(CacheGeometry { sets: 64, ways: 4 })
            .with_hierarchy(HierarchyConfig::new(cluster, banks));
        let wl = LockingMicrobench::new(nodes, nodes as u64 * 4, Duration::ZERO, 1);
        let (events, secs) =
            timed_window(cfg, wl, Duration::from_ns(5_000), Duration::from_ns(50_000));
        events as f64 / secs.max(1e-9)
    };
    (0..reps).map(|_| run()).fold(0.0, f64::max)
}

/// Per-node tables in the block-table point: one per controller of a
/// 1024-node system.
const BT_TABLES: u64 = 1024;
/// Blocks held per table.
const BT_ENTRIES: u64 = 64;
/// Lookup sweeps per timed rep.
const BT_PASSES: u64 = 8;

/// As wide as a cache controller's side entry (a writeback buffer with
/// its 64-byte data plus a tracked-sharer set): a lookup that reads the
/// slot it misses on pays for this width.
type WideEntry = [u64; 13];

/// Best-of-3 ns per lookup over [`BT_TABLES`] tables of [`BT_ENTRIES`]
/// blocks each, block numbers spaced `stride` apart. Each step probes
/// every table once, as a broadcast reaches every controller: hits look
/// up a table's own blocks, misses its neighbour's.
fn lookup_ns<T>(
    new_table: impl Fn() -> T,
    insert: impl Fn(&mut T, BlockAddr),
    get: impl Fn(&T, BlockAddr) -> Option<&WideEntry>,
    stride: u64,
    hits: bool,
) -> f64 {
    let block = |table: u64, i: u64| BlockAddr((table * BT_ENTRIES + i) * stride);
    let tables: Vec<T> = (0..BT_TABLES)
        .map(|t| {
            let mut table = new_table();
            for i in 0..BT_ENTRIES {
                insert(&mut table, block(t, i));
            }
            table
        })
        .collect();
    let probed = |t: u64| if hits { t } else { (t + 1) % BT_TABLES };
    let run = || {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..BT_PASSES {
            for i in 0..BT_ENTRIES {
                for (t, table) in (0..).zip(&tables) {
                    acc = acc.wrapping_add(get(table, block(probed(t), i)).map_or(1, |e| e[0]));
                }
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e9 / (BT_PASSES * BT_ENTRIES * BT_TABLES) as f64
    };
    (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// The `blocktable` JSON lines: [`lookup_ns`] for `BlockTable` and for a
/// default-hasher `HashMap`, dense and stride-4096, hits and misses.
fn blocktable_lines() -> Vec<String> {
    let mut lines = vec![
        format!("    \"tables\": {BT_TABLES}"),
        format!("    \"entries_per_table\": {BT_ENTRIES}"),
    ];
    for (addrs, stride) in [("dense", 1), ("stride4096", 4096)] {
        for (kind, hits) in [("hit", true), ("miss", false)] {
            let bt = lookup_ns(
                BlockTable::<WideEntry>::new,
                |t, b| {
                    t.or_default(b);
                },
                |t, b| t.get(b),
                stride,
                hits,
            );
            let hm = lookup_ns(
                HashMap::<BlockAddr, WideEntry>::new,
                |t, b| {
                    t.insert(b, WideEntry::default());
                },
                |t, b| t.get(&b),
                stride,
                hits,
            );
            eprintln!("  {addrs:>10} {kind:4} BlockTable {bt:6.2} ns, HashMap {hm:6.2} ns");
            lines.push(format!("    \"blocktable_{addrs}_{kind}_ns\": {bt:.2}"));
            lines.push(format!("    \"hashmap_{addrs}_{kind}_ns\": {hm:.2}"));
        }
    }
    lines
}

/// The process's peak resident set so far (`VmHWM`) in MB, or `None`
/// where `/proc/self/status` does not exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Below this measured parallelism a sweep "speedup" is host noise.
const MIN_EFFECTIVE_PARALLELISM: f64 = 1.5;

/// A fixed CPU-bound task (~0.1 s of xorshift steps) for the spin test.
fn spin() {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..100_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// How many cores' worth of work `threads` threads really get: one spin
/// on one thread, then one spin on each of `threads` threads at once.
/// `available_threads()` counts logical CPUs, not what a shared host
/// actually grants.
fn effective_parallelism(threads: usize) -> f64 {
    let t0 = Instant::now();
    spin();
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(spin);
        }
    });
    threads as f64 * one / t0.elapsed().as_secs_f64().max(1e-9)
}

const SWEEP_BANDWIDTHS: [u64; 7] = [200, 400, 800, 1600, 3200, 6400, 12800];
const SWEEP_SEEDS: u32 = 4;

/// Wall seconds for the fixed sweep grid at the given thread count.
fn sweep(threads: usize) -> f64 {
    let t0 = Instant::now();
    let reports = SimBuilder::new(ProtocolKind::Bash)
        .nodes(8)
        .bandwidths(SWEEP_BANDWIDTHS)
        .seeds(SWEEP_SEEDS)
        .locking_microbench(128, Duration::ZERO)
        .warmup_ns(10_000)
        .measure_ns(100_000)
        .threads(threads)
        .run_sweep();
    assert_eq!(reports.len(), SWEEP_BANDWIDTHS.len());
    t0.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    eprintln!("measuring single-threaded events/sec (3 reps per protocol)...");
    let mut proto_lines = Vec::new();
    for proto in ProtocolKind::ALL {
        let eps = events_per_sec(proto, 3);
        eprintln!("  {:9} {:>12.0} events/s", proto.name(), eps);
        proto_lines.push(format!("    \"{}\": {:.0}", proto.name(), eps));
    }

    eprintln!("measuring 256-node queue churn, calendar vs heap (5 reps)...");
    let cal_ops = queue_churn_ops_per_sec(QueueKind::Calendar, 5);
    let heap_ops = queue_churn_ops_per_sec(QueueKind::Heap, 5);
    let churn_ratio = cal_ops / heap_ops.max(1e-9);
    eprintln!("  calendar {cal_ops:>12.0} ops/s, heap {heap_ops:>12.0} ops/s ({churn_ratio:.2}x)");

    eprintln!("measuring hierarchical scale points (256/1024/4096 nodes)...");
    let mut scale_lines = Vec::new();
    for (nodes, cluster, banks, reps) in [(256, 16, 8, 3), (1024, 32, 16, 2), (4096, 64, 32, 1)] {
        let eps = scale_events_per_sec(nodes, cluster, banks, reps);
        eprintln!("  {nodes:>5} nodes {eps:>12.0} events/s");
        scale_lines.push(format!("    \"events_per_sec_{nodes}\": {eps:.0}"));
    }
    let rss = peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}"));
    eprintln!("  peak RSS {rss} MB");
    scale_lines.push(format!("    \"peak_rss_mb\": {rss}"));

    eprintln!(
        "measuring block-table lookups ({BT_TABLES} tables x {BT_ENTRIES} entries, best of 3)..."
    );
    let blocktable_section = blocktable_lines();

    let grid_points = SWEEP_BANDWIDTHS.len() as u32 * SWEEP_SEEDS;
    eprintln!(
        "measuring sweep wall time ({} bandwidths x {} seeds)...",
        SWEEP_BANDWIDTHS.len(),
        SWEEP_SEEDS
    );
    let threads = pool::available_threads();
    let parallelism = effective_parallelism(threads);
    let serial_s = sweep(1);
    let head = format!(
        "    \"grid_points\": {grid_points},\n    \"available_threads\": {threads},\n    \"effective_parallelism\": {parallelism:.2},\n    \"wall_s_threads1\": {serial_s:.4}"
    );
    // A host that grants less than 1.5 cores' worth of spin throughput
    // would only publish run-to-run noise as a speedup. Skip the point
    // and say so in the artifact.
    let sweep_section = if parallelism < MIN_EFFECTIVE_PARALLELISM {
        eprintln!(
            "  serial {serial_s:.3}s; effective parallelism {parallelism:.2} on {threads} threads — parallel point skipped"
        );
        format!(
            "{head},\n    \"parallel\": \"skipped: effective parallelism {parallelism:.2} < {MIN_EFFECTIVE_PARALLELISM}, speedup would be noise\""
        )
    } else {
        let parallel_s = sweep(0);
        let speedup = serial_s / parallel_s.max(1e-9);
        eprintln!(
            "  serial {serial_s:.3}s, parallel {parallel_s:.3}s on {threads} threads ({speedup:.2}x, effective parallelism {parallelism:.2})"
        );
        format!(
            "{head},\n    \"wall_s_parallel\": {parallel_s:.4},\n    \"speedup\": {speedup:.3},\n    \"speedup_threads\": {threads}"
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"events_per_sec\": {{\n{}\n  }},\n  \"queue\": {{\n    \"calendar_vs_heap_256\": {:.3},\n    \"churn_ops_per_sec_calendar\": {:.0},\n    \"churn_ops_per_sec_heap\": {:.0}\n  }},\n  \"scale\": {{\n{}\n  }},\n  \"blocktable\": {{\n{}\n  }},\n  \"sweep\": {{\n{}\n  }}\n}}\n",
        proto_lines.join(",\n"),
        churn_ratio,
        cal_ops,
        heap_ops,
        scale_lines.join(",\n"),
        blocktable_section.join(",\n"),
        sweep_section,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
