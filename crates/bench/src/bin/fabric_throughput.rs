//! Emits `BENCH_fabric.json`: the interconnect fabric's throughput
//! baseline.
//!
//! One fixed 16-node BASH run per configuration: crossbar vs. 4×4 mesh
//! (what hop-by-hop routing, per-link queueing and edge resequencing
//! cost the engine relative to the single-hop crossbar), plus the mesh
//! under a 1 % lossy fault plane with the reliable transport on (what
//! fault bookkeeping + retransmission cost the fabric). The relative
//! factors are the numbers to watch commit to commit; `lossy_vs_mesh`
//! is expected to stay above ~0.85 (< 15 % events/sec regression) —
//! tracked as a trajectory, not a hard CI gate, since shared runners
//! are too noisy to threshold.
//!
//! Usage: `fabric_throughput [OUTPUT.json]` (default `BENCH_fabric.json`).
//! Run it through `scripts/bench_fabric.sh` for a release build.

use std::time::Instant;

use bash::{Duration, FaultPlaneConfig, ProtocolKind, System, SystemConfig, TopologyKind};
use bash_coherence::CacheGeometry;
use bash_workloads::LockingMicrobench;

/// One fixed end-to-end run; returns (events processed, wall seconds).
fn timed_run(topology: TopologyKind, fault: Option<FaultPlaneConfig>) -> (u64, f64) {
    let mut cfg = SystemConfig::paper_default(ProtocolKind::Bash, 16, 1600)
        .with_topology(topology)
        .with_cache(CacheGeometry { sets: 256, ways: 4 });
    if let Some(plane) = fault {
        cfg = cfg.with_fault_plane(plane);
    }
    let wl = LockingMicrobench::new(16, 256, Duration::ZERO, 1);
    let t0 = Instant::now();
    let stats = System::run(
        cfg,
        wl,
        Duration::from_ns(10_000),
        Duration::from_ns(200_000),
    )
    .expect("a locking run never wedges");
    (stats.events_processed, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` events/sec for one configuration.
fn events_per_sec(topology: TopologyKind, fault: Option<&FaultPlaneConfig>, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let (events, secs) = timed_run(topology, fault.cloned());
            events as f64 / secs.max(1e-9)
        })
        .fold(0.0, f64::max)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fabric.json".to_string());

    eprintln!("measuring fabric events/sec, 16-node BASH (3 reps per config)...");
    let crossbar = events_per_sec(TopologyKind::Crossbar, None, 3);
    eprintln!("  crossbar-16   {crossbar:>12.0} events/s");
    let mesh = events_per_sec(TopologyKind::Mesh2D, None, 3);
    eprintln!("  mesh-16       {mesh:>12.0} events/s");
    let lossy_plane = FaultPlaneConfig::lossy(0xC0A5, 0.01);
    let lossy = events_per_sec(TopologyKind::Mesh2D, Some(&lossy_plane), 3);
    eprintln!("  mesh-16-lossy {lossy:>12.0} events/s (1% loss, transport on)");

    let json = format!(
        "{{\n  \"bench\": \"fabric\",\n  \"events_per_sec\": {{\n    \"crossbar-16\": {:.0},\n    \"mesh-16\": {:.0},\n    \"mesh-16-lossy\": {:.0}\n  }},\n  \"mesh_vs_crossbar\": {:.3},\n  \"lossy_vs_mesh\": {:.3}\n}}\n",
        crossbar,
        mesh,
        lossy,
        mesh / crossbar.max(1e-9),
        lossy / mesh.max(1e-9),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
