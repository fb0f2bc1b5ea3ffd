//! Engine throughput / paper-shape probe: 64-processor microbenchmark
//! points at three bandwidths with wall-clock timings.
//!
//! `cargo run --release --example tester_perf_probe`

use bash::{CacheGeometry, Duration, LockingMicrobench, ProtocolKind, System, SystemConfig};

fn main() {
    for (proto, mbps) in [
        (ProtocolKind::Snooping, 1600),
        (ProtocolKind::Directory, 1600),
        (ProtocolKind::Bash, 1600),
        (ProtocolKind::Snooping, 400),
        (ProtocolKind::Directory, 400),
        (ProtocolKind::Bash, 400),
        (ProtocolKind::Snooping, 12800),
        (ProtocolKind::Directory, 12800),
        (ProtocolKind::Bash, 12800),
    ] {
        let nodes = 64u16;
        let cfg = SystemConfig::paper_default(proto, nodes, mbps).with_cache(CacheGeometry {
            sets: 2048,
            ways: 4,
        });
        let wl = LockingMicrobench::new(nodes, 1024, Duration::ZERO, 1);
        let wall = std::time::Instant::now();
        let stats = System::run(
            cfg,
            wl,
            Duration::from_ns(100_000),
            Duration::from_ns(400_000),
        )
        .expect("a locking run never wedges");
        println!(
            "{:9} {:6} MB/s: perf={:9.1} ops/ms lat={:6.1}ns util={:4.2} bcast={:4.2} shar={:4.2} retries={} wall={:?} ev={}",
            stats.protocol, mbps,
            stats.ops_per_sec() / 1e6,
            stats.avg_miss_latency_ns,
            stats.link_utilization,
            stats.broadcast_fraction(),
            stats.sharing_fraction(),
            stats.retries,
            wall.elapsed(),
            stats.events_processed,
        );
    }
}
