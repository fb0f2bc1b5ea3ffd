//! Trace round trip: capture a live run into the versioned trace format,
//! push it through both encodings, and replay it across every protocol
//! and thread count — demonstrating the capture-once / replay-anywhere
//! workflow the golden-report CI gates are built on.
//!
//! ```text
//! cargo run --release --example trace_roundtrip [scenario]
//! ```
//!
//! `scenario` is any catalog name (default `phase-shift`); run with an
//! unknown name to see the catalog listing.

use bash::{catalog, sweep_canonical_text, ProtocolKind, SimBuilder, Trace};

const NODES: u16 = 8;
const WARMUP_NS: u64 = 20_000;
const MEASURE_NS: u64 = 60_000;

/// A strided reference stream over a wide address space: each node scans
/// its own 2^32-based region with a fixed stride — the scan/DMA-like
/// shape the v2 per-node delta encoding is built for.
fn strided_stream() -> Trace {
    let nodes = 8u16;
    let records = (0..8_000u64)
        .map(|i| {
            let node = (i % nodes as u64) as u16;
            let step = i / nodes as u64;
            bash::TraceRecord {
                node: bash::NodeId(node),
                think: bash::Duration::from_ns(10),
                instructions: 40,
                op: bash::ProcOp::Load {
                    block: bash::BlockAddr((1 << 32) + ((node as u64) << 36) + step * 16),
                    word: (i % 8) as usize,
                },
                completion: None,
            }
        })
        .collect();
    Trace {
        nodes,
        seed: 0,
        workload: "strided-scan".to_string(),
        records,
    }
}

fn builder(proto: ProtocolKind, scenario: &str) -> SimBuilder {
    SimBuilder::new(proto)
        .nodes(NODES)
        .bandwidth_mbps(1600)
        .scenario(scenario)
        .seed(0xF00D)
        .warmup_ns(WARMUP_NS)
        .measure_ns(MEASURE_NS)
}

fn main() {
    let scenario = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "phase-shift".to_string());
    if catalog::find(&scenario).is_none() {
        eprintln!("unknown scenario {scenario:?}; the catalog:");
        for s in catalog::CATALOG {
            eprintln!("  {:<18} {}", s.name, s.summary);
        }
        std::process::exit(2);
    }

    // 1. Capture: run the scenario once under BASH, recording the op
    //    stream it issues.
    let (live, trace) = builder(ProtocolKind::Bash, &scenario).run_captured();
    println!(
        "captured {:>6} ops from a live '{scenario}' run ({} nodes, seed {:#x})",
        trace.records.len(),
        trace.nodes,
        trace.seed
    );

    // 2. Round-trip through both encodings: the v2 chunked form and the
    //    legacy v1 container.
    let bytes = trace.to_bytes();
    assert_eq!(Trace::from_bytes(&bytes).expect("v2 decode"), trace);
    let v1 = trace.to_bytes_v1();
    assert_eq!(Trace::from_bytes(&v1).expect("v1 decode"), trace);
    println!(
        "v2 chunked form: {} bytes ({:.2} B/record); v1 form: {} bytes (ratio {:.3}) \
         — both decode identically",
        bytes.len(),
        bytes.len() as f64 / trace.records.len() as f64,
        v1.len(),
        bytes.len() as f64 / v1.len() as f64,
    );

    // 2b. Where the v2 per-node delta encoding pays off: strided streams
    //     over a large address space (each node walking its own region).
    //     The adaptive encoder never does worse than v1 — on this shape
    //     it does far better.
    let strided = strided_stream();
    let (v2s, v1s) = (strided.to_bytes().len(), strided.to_bytes_v1().len());
    println!(
        "strided stream ({} records over {} nodes): v2 {} bytes vs v1 {} bytes \
         — {:.1}% smaller (ratio {:.3})",
        strided.records.len(),
        strided.nodes,
        v2s,
        v1s,
        (1.0 - v2s as f64 / v1s as f64) * 100.0,
        v2s as f64 / v1s as f64
    );
    let path = std::env::temp_dir().join("bash_trace_roundtrip.trace");
    trace.write_to(&path).expect("write trace");
    let from_disk = Trace::read_from(&path).expect("read trace");
    assert_eq!(from_disk, trace);
    println!("on-disk round trip via {} ok", path.display());
    std::fs::remove_file(&path).ok();

    // 3. Replay byte-identically: same protocol, same plan, any threads.
    let replayed = builder(ProtocolKind::Bash, &scenario)
        .trace_in(trace.clone())
        .run();
    assert_eq!(
        live.canonical_text(),
        replayed.canonical_text(),
        "replay must reproduce the captured run"
    );
    let serial = sweep_canonical_text(
        &builder(ProtocolKind::Bash, &scenario)
            .trace_in(trace.clone())
            .bandwidths([400, 1600, 6400])
            .threads(1)
            .run_sweep(),
    );
    let parallel = sweep_canonical_text(
        &builder(ProtocolKind::Bash, &scenario)
            .trace_in(trace.clone())
            .bandwidths([400, 1600, 6400])
            .threads(4)
            .run_sweep(),
    );
    assert_eq!(serial, parallel);
    println!("replay is byte-identical to the live run, threads(1) == threads(4)\n");

    // 4. The payoff: one captured stream, compared across all protocols.
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>10}",
        "protocol", "ops/ms", "latency", "util", "broadcast"
    );
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Bash,
        ProtocolKind::Directory,
    ] {
        let report = builder(proto, &scenario).trace_in(trace.clone()).run();
        println!(
            "{:<10} {:>10.1} {:>8.1}ns {:>7.1}% {:>9.1}%",
            report.protocol.name(),
            report.ops_per_sec.mean / 1e6,
            report.miss_latency_ns.mean,
            report.link_utilization.mean * 100.0,
            report.broadcast_fraction.mean * 100.0,
        );
    }
    println!("\n(same reference stream in all three rows — that's the point)");
}
